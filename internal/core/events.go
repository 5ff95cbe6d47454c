package core

import (
	"time"

	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// Level names a storage level of the hierarchy for event attribution.
type Level uint8

// Storage levels, outermost first.
const (
	LevelMem Level = iota
	LevelSSD
	LevelHDD
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelMem:
		return "mem"
	case LevelSSD:
		return "ssd"
	case LevelHDD:
		return "hdd"
	default:
		return "level?"
	}
}

// EventKind classifies one manager event.
type EventKind uint8

// Manager event kinds. Every change to Stats is one event folded by
// (*Stats).apply, so a sink that folds the events it receives reproduces
// the Stats totals exactly.
const (
	// EvListRead: Bytes of term Term's list served from Level. Detail is
	// DetailReadThrough for bytes a whole-list or readahead fetch pulled in
	// beyond the engine's request.
	EvListRead EventKind = iota
	// EvResultHit: a result-cache probe served from Level (Bytes = entry size).
	EvResultHit
	// EvResultMiss: a result-cache probe that found nothing.
	EvResultMiss
	// EvListFlush: Bytes of an inverted-list extent written to the SSD cache.
	EvListFlush
	// EvResultFlush: Bytes of result data written to the SSD cache. Detail
	// is DetailRB for an assembled RB (the cost-based policies), none for a
	// single entry (the LRU baseline and static pins).
	EvResultFlush
	// EvListEvict: an inverted-list entry evicted from the cache at Level.
	// Detail is DetailInPlace when a same-size SSD victim is overwritten in
	// place (Fig 13 steps 2–3).
	EvListEvict
	// EvResultEvict: a result entry evicted from the cache at Level. Detail
	// is DetailRB when a whole result block is retired.
	EvResultEvict
	// EvQueryEnd: the current query, of simulated wall time Elapsed, was
	// classified into situation Sit.
	EvQueryEnd
	// EvIOError: an SSD cache operation of kind Op failed; Bytes is the
	// size of the failed transfer, Level is always LevelSSD.
	EvIOError
	// EvDegraded: a request was served around the SSD tier because the
	// circuit breaker is open.
	EvDegraded
	// EvListRange: the engine asked for Bytes of term Term's list.
	EvListRange
	// EvListRequest: at query end, one per distinct term the query read;
	// Level is the deepest level that served any of its bytes (LevelMem
	// when none were read). Anything above LevelHDD is a list hit.
	EvListRequest
	// EvListPrefetch: Bytes of readahead beyond the request tail.
	EvListPrefetch
	// EvResultExpire: a result entry at Level outlived Config.ResultTTL.
	EvResultExpire
	// EvListExpire: term Term's list entry at Level outlived Config.ListTTL.
	EvListExpire
	// EvListDiscard: an evicted L1 list that did not reach the SSD.
	EvListDiscard
	// EvResultElide: an evicted result entry whose valid SSD copy was
	// revalidated instead of rewritten.
	EvResultElide
	// EvListElide: the list counterpart of EvResultElide.
	EvListElide
	// EvResultDrop: one evicted result entry lost instead of flushed.
	EvResultDrop
	// EvResultRequeue: one result entry put back in the write buffer after
	// its RB flush failed.
	EvResultRequeue
	// EvQuarantine: Bytes of SSD cache space retired after a device error.
	EvQuarantine
	// EvBreakerTrip: the SSD circuit breaker opened.
	EvBreakerTrip
	// EvPlacementWorstCase: a list extent was placed only by sweeping the
	// whole L2 LRU list (Fig 13's last resort).
	EvPlacementWorstCase
	// EvListTooLarge: term Term's list exceeds the L1 per-entry cap.
	EvListTooLarge
	// EvListReject: the admission policy's frequency gate kept an evicted
	// list off the flash.
	EvListReject
	// EvResultReject: the admission policy dropped an evicted result entry
	// before it reached the write buffer.
	EvResultReject

	numEventKinds
)

// String names the event kind.
func (k EventKind) String() string {
	names := [...]string{
		"list_read", "result_hit", "result_miss", "list_flush",
		"result_flush", "list_evict", "result_evict", "query_end",
		"io_error", "degraded", "list_range", "list_request",
		"list_prefetch", "result_expire", "list_expire", "list_discard",
		"result_elide", "list_elide", "result_drop", "result_requeue",
		"quarantine", "breaker_trip", "placement_worst_case",
		"list_too_large", "list_reject", "result_reject",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "event?"
}

// Detail tells apart the sub-cases one event kind covers.
type Detail uint8

// Event details (see the kinds that use them); zero is the common case.
const (
	DetailReadThrough Detail = iota + 1
	DetailRB
	DetailInPlace
)

// Event is one fine-grained cache-manager occurrence, emitted synchronously
// on the serving path for tracing and metrics. Fields beyond Kind are
// populated per kind (see the kind constants).
type Event struct {
	Kind    EventKind
	Level   Level
	Op      storage.OpKind
	Detail  Detail
	Term    workload.TermID
	Bytes   int64
	Sit     Situation
	Elapsed time.Duration
}

// SetEventSink installs a callback receiving every manager event, or removes
// it when fn is nil. The sink is invoked synchronously on the serving path
// under the simulation's single-threaded discipline; it must not call back
// into the manager.
func (m *Manager) SetEventSink(fn func(Event)) { m.events = fn }

// record is the manager's only way to change Stats: it notes which level
// served the current query, folds the event into the counters, and
// delivers it to the sink, if any.
func (m *Manager) record(e Event) {
	if m.curQueryActive {
		switch e.Kind {
		case EvListRead:
			ts, _ := m.queryTerm(e.Term)
			ts.src |= 1 << e.Level
		case EvResultHit:
			m.curResultSrc |= 1 << e.Level
		}
	}
	m.stats.apply(e)
	if m.events != nil {
		m.events(e)
	}
}

// apply folds one event into the counters.
func (s *Stats) apply(e Event) {
	switch e.Kind {
	case EvListRead:
		switch e.Level {
		case LevelMem:
			s.ListBytesFromMem += e.Bytes
		case LevelSSD:
			s.ListBytesFromSSD += e.Bytes
		default:
			s.ListBytesFromHDD += e.Bytes
			if e.Detail != DetailReadThrough {
				s.ListReqBytesFromHDD += e.Bytes
			}
		}
	case EvResultHit:
		if e.Level == LevelMem {
			s.ResultHitsMem++
		} else {
			s.ResultHitsSSD++
		}
	case EvResultMiss:
		s.ResultMisses++
	case EvListFlush:
		s.ListBytesToSSD += e.Bytes
		s.ListWritesToSSD++
	case EvResultFlush:
		s.ResultBytesToSSD += e.Bytes
		if e.Detail == DetailRB {
			s.RBFlushes++
		}
	case EvListEvict:
		if e.Level == LevelMem {
			s.L1ListEvictions++
			break
		}
		s.L2ListEvictions++
		if e.Detail == DetailInPlace {
			s.ListOverwritesInPlace++
		}
	case EvResultEvict:
		switch {
		case e.Level == LevelMem:
			s.L1ResultEvictions++
		case e.Detail == DetailRB:
			s.RBRetired++
		default:
			s.L2ResultEvictions++
		}
	case EvQueryEnd:
		s.Queries++
		s.QueryTime += e.Elapsed
		s.Situations.Counts[e.Sit]++
		s.Situations.Time[e.Sit] += e.Elapsed
	case EvIOError:
		switch e.Op {
		case storage.OpRead:
			s.SSDReadErrors++
		case storage.OpWrite:
			s.SSDWriteErrors++
		default:
			s.SSDTrimErrors++
		}
	case EvDegraded:
		s.DegradedServes++
	case EvListRange:
		s.ListBytesRequested += e.Bytes
	case EvListRequest:
		s.ListRequests++
		if e.Level != LevelHDD {
			s.ListHits++
		}
	case EvListPrefetch:
		s.ListBytesPrefetched += e.Bytes
	case EvResultExpire:
		s.ResultsExpired++
	case EvListExpire:
		s.ListsExpired++
	case EvListDiscard:
		s.ListsDiscarded++
	case EvResultElide:
		s.ResultWritesElided++
	case EvListElide:
		s.ListWritesElided++
	case EvResultDrop:
		s.ResultsDropped++
	case EvResultRequeue:
		s.ResultsRequeued++
	case EvQuarantine:
		s.ExtentsQuarantined++
		s.QuarantinedBytes += e.Bytes
	case EvBreakerTrip:
		s.BreakerTrips++
	case EvPlacementWorstCase:
		s.ListPlacementWorstCase++
	case EvListTooLarge:
		s.ListsTooLargeForL1++
	case EvListReject:
		s.ListsRejectedByAdmission++
	case EvResultReject:
		s.ResultsRejectedByAdmission++
	}
}
