package core

import (
	"sort"
	"time"

	"hybridstore/internal/workload"
)

// sourceSet is a bit set of storage levels that contributed to a request:
// bit 1<<Level is set for each level that served bytes.
type sourceSet uint8

const (
	srcMem sourceSet = 1 << iota
	srcSSD
	srcHDD
)

// Situation is one of the paper's nine retrieval situations (Table I):
// which level served the result entry, or — when the result had to be
// recomputed — which combination of levels served the inverted lists.
type Situation int

// The nine situations of Table I. S1–S2 are result-cache hits; S3–S9
// classify where the inverted lists of a recomputed query came from.
const (
	S1ResultMem Situation = iota
	S2ResultSSD
	S3ListsMem
	S4ListsMemSSD
	S5ListsSSD
	S6ListsMemHDD
	S7ListsMemSSDHDD
	S8ListsSSDHDD
	S9ListsHDD

	// NumSituations bounds arrays indexed by Situation. It is not a
	// situation.
	NumSituations
)

// String names the situation as in Table I.
func (s Situation) String() string {
	names := [...]string{
		"S1(R:mem)", "S2(R:ssd)", "S3(I:mem)", "S4(I:mem+ssd)", "S5(I:ssd)",
		"S6(I:mem+hdd)", "S7(I:mem+ssd+hdd)", "S8(I:ssd+hdd)", "S9(I:hdd)",
	}
	if int(s) < len(names) {
		return names[s]
	}
	return "S?"
}

func classifyLists(src sourceSet) Situation {
	switch src {
	case srcMem:
		return S3ListsMem
	case srcMem | srcSSD:
		return S4ListsMemSSD
	case srcSSD:
		return S5ListsSSD
	case srcMem | srcHDD:
		return S6ListsMemHDD
	case srcMem | srcSSD | srcHDD:
		return S7ListsMemSSDHDD
	case srcSSD | srcHDD:
		return S8ListsSSDHDD
	default:
		return S9ListsHDD
	}
}

// SituationTally accumulates Table I: per-situation occurrence counts and
// total simulated time, from which probabilities P1..P9 and average time
// costs T1..T9 derive.
type SituationTally struct {
	Counts [NumSituations]int64
	Time   [NumSituations]time.Duration
}

// Total returns the number of classified queries.
func (s *SituationTally) Total() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Probability returns P_i for situation i.
func (s *SituationTally) Probability(i Situation) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	return float64(s.Counts[i]) / float64(total)
}

// MeanTime returns T_i for situation i.
func (s *SituationTally) MeanTime(i Situation) time.Duration {
	if s.Counts[i] == 0 {
		return 0
	}
	return s.Time[i] / time.Duration(s.Counts[i])
}

// SituationRow is one row of Table I: a situation with its occurrence
// count, probability P_i and mean time cost T_i.
type SituationRow struct {
	Sit      Situation
	Count    int64
	P        float64
	MeanTime time.Duration
}

// Table returns all nine (P_i, T_i) rows of Table I in situation order,
// including zero-count rows, so every reporter renders from one source.
func (s *SituationTally) Table() []SituationRow {
	rows := make([]SituationRow, NumSituations)
	for i := Situation(0); i < NumSituations; i++ {
		rows[i] = SituationRow{
			Sit:      i,
			Count:    s.Counts[i],
			P:        s.Probability(i),
			MeanTime: s.MeanTime(i),
		}
	}
	return rows
}

// Stats aggregates the manager's counters. All byte counts are payload
// bytes; device-level counters (erases, access times) live on the devices.
type Stats struct {
	// Result cache.
	ResultHitsMem      int64
	ResultHitsSSD      int64
	ResultMisses       int64
	L1ResultEvictions  int64
	L2ResultEvictions  int64
	ResultWritesElided int64
	ResultsDropped     int64
	ResultBytesToSSD   int64
	RBFlushes          int64
	RBRetired          int64

	// Inverted-list cache.
	ListRequests           int64
	ListHits               int64 // requests served with no HDD bytes
	ListBytesRequested     int64 // bytes the engine asked ReadListRange for
	ListReqBytesFromHDD    int64 // requested bytes that fell through to HDD
	ListBytesPrefetched    int64 // readahead bytes beyond the requested tail
	ListBytesFromMem       int64
	ListBytesFromSSD       int64
	ListBytesFromHDD       int64
	ListBytesToSSD         int64
	ListWritesToSSD        int64
	ListWritesElided       int64
	ListsDiscarded         int64
	ListOverwritesInPlace  int64
	ListPlacementWorstCase int64
	ListsTooLargeForL1     int64
	L1ListEvictions        int64
	L2ListEvictions        int64

	// Admission-policy accounting (the zoo's frequency doorkeepers).
	// ListsRejectedByAdmission sub-classifies ListsDiscarded: evicted
	// lists the admission policy's frequency gate kept off the flash.
	// ResultsRejectedByAdmission counts evicted result entries the gate
	// dropped before they reached the write buffer.
	ListsRejectedByAdmission   int64
	ResultsRejectedByAdmission int64

	// Dynamic scenario (TTL) accounting.
	ResultsExpired int64
	ListsExpired   int64

	// Fault accounting. Every SSD device error is counted here and every
	// entry lost to one lands in a drop/discard/requeue counter — injected
	// faults never silently lose accounting.
	SSDReadErrors  int64
	SSDWriteErrors int64
	SSDTrimErrors  int64
	// ResultsRequeued counts buffered result entries put back in the write
	// buffer after their RB flush failed (each entry is requeued at most
	// once; a second failure drops it into ResultsDropped).
	ResultsRequeued int64
	// ExtentsQuarantined / QuarantinedBytes track SSD cache space retired
	// after device errors (never re-allocated).
	ExtentsQuarantined int64
	QuarantinedBytes   int64
	// BreakerTrips counts circuit-breaker openings; DegradedServes counts
	// requests served around the SSD tier while the breaker was open.
	BreakerTrips   int64
	DegradedServes int64

	// Per-query outcome classification.
	Situations SituationTally
	Queries    int64
	QueryTime  time.Duration
}

// ResultLookups returns the number of result-cache probes.
func (s Stats) ResultLookups() int64 {
	return s.ResultHitsMem + s.ResultHitsSSD + s.ResultMisses
}

// ResultHitRatio returns the Fig 14 "RC" ratio: result probes served from
// either cache level.
func (s Stats) ResultHitRatio() float64 {
	total := s.ResultLookups()
	if total == 0 {
		return 0
	}
	return float64(s.ResultHitsMem+s.ResultHitsSSD) / float64(total)
}

// ListHitRatio returns the Fig 14 "IC" ratio, byte-weighted: the fraction
// of engine-requested list bytes served without touching the backing
// store. Byte weighting is the honest measure for variable-length entries:
// a 1 MB list missing its last 8 KB is a 99% hit, not a miss.
func (s Stats) ListHitRatio() float64 {
	if s.ListBytesRequested == 0 {
		return 0
	}
	return 1 - float64(s.ListReqBytesFromHDD)/float64(s.ListBytesRequested)
}

// ListRequestHitRatio is the request-granularity variant: per-query term
// requests that needed no backing-store bytes at all.
func (s Stats) ListRequestHitRatio() float64 {
	if s.ListRequests == 0 {
		return 0
	}
	return float64(s.ListHits) / float64(s.ListRequests)
}

// CombinedHitRatio returns the Fig 14 "RIC" ratio: result lookups and list
// requests combined, with list requests contributing their byte-weighted
// hit fraction.
func (s Stats) CombinedHitRatio() float64 {
	probes := s.ResultLookups() + s.ListRequests
	if probes == 0 {
		return 0
	}
	hits := float64(s.ResultHitsMem+s.ResultHitsSSD) +
		s.ListHitRatio()*float64(s.ListRequests)
	return hits / float64(probes)
}

// MeanQueryTime returns average simulated response time per query.
func (s Stats) MeanQueryTime() time.Duration {
	if s.Queries == 0 {
		return 0
	}
	return s.QueryTime / time.Duration(s.Queries)
}

// Throughput returns simulated queries per second.
func (s Stats) Throughput() float64 {
	if s.QueryTime <= 0 {
		return 0
	}
	return float64(s.Queries) / s.QueryTime.Seconds()
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (cache contents are untouched), so
// experiments can measure steady state after warm-up.
func (m *Manager) ResetStats() { m.stats = Stats{} }

// BeginQuery starts situation tracking for one query. The driver brackets
// each query with BeginQuery/EndQuery; list reads in between are attributed
// to it.
func (m *Manager) BeginQuery(qid uint64) {
	m.curQuery = qid
	m.curQueryActive = true
	m.curResultSrc = 0
	m.curTerms = m.curTerms[:0]
}

// EndQuery finalizes tracking: classifies the query into its Table I
// situation, then records each term's demand in first-access order.
// elapsed is the query's simulated wall time.
func (m *Manager) EndQuery(elapsed time.Duration) {
	if !m.curQueryActive {
		return
	}
	m.curQueryActive = false

	var sit Situation
	switch {
	case m.curResultSrc&srcMem != 0:
		sit = S1ResultMem
	case m.curResultSrc&srcSSD != 0:
		sit = S2ResultSSD
	default:
		var union sourceSet
		for _, ts := range m.curTerms {
			union |= ts.src
		}
		sit = classifyLists(union)
	}
	m.record(Event{Kind: EvQueryEnd, Sit: sit, Elapsed: elapsed})

	for _, ts := range m.curTerms {
		level := LevelMem
		switch {
		case ts.src&srcHDD != 0:
			level = LevelHDD
		case ts.src&srcSSD != 0:
			level = LevelSSD
		}
		m.record(Event{Kind: EvListRequest, Term: ts.term, Level: level})
	}
}

// termSource is one term the current query read and the levels that
// served it.
type termSource struct {
	term workload.TermID
	src  sourceSet
}

// queryTerm returns the current query's entry for t, appending it on first
// access (first reports that). Queries carry few terms, so a linear scan
// beats a map and keeps first-access order.
func (m *Manager) queryTerm(t workload.TermID) (ts *termSource, first bool) {
	for i := range m.curTerms {
		if m.curTerms[i].term == t {
			return &m.curTerms[i], false
		}
	}
	m.curTerms = append(m.curTerms, termSource{term: t})
	return &m.curTerms[len(m.curTerms)-1], true
}

// noteTermAccess bumps the term's access frequency, once per query for
// situation purposes but on every request when untracked.
func (m *Manager) noteTermAccess(t workload.TermID) {
	if m.curQueryActive {
		if _, first := m.queryTerm(t); first {
			bumpFreq(m.termFreq, t, m.cfg.FreqCap)
		}
		return
	}
	bumpFreq(m.termFreq, t, m.cfg.FreqCap)
}

// bumpFreq increments one frequency counter, decaying the whole map when it
// outgrows Config.FreqCap: all counts halve and zeros are pruned until the
// map fits. Uniform decay divides every EV = Freq/SC by the same factor, so
// the cost-based replacement ordering is preserved while memory stays
// bounded for arbitrarily many distinct keys.
func bumpFreq[K comparable](m map[K]int64, k K, limit int) {
	m[k]++
	// Each pass halves every count and prunes zeros; counts strictly
	// decrease, so after at most log2(max) passes the map empties — the
	// loop always terminates.
	for limit > 0 && len(m) > limit {
		for key, v := range m {
			v /= 2
			if v == 0 {
				delete(m, key)
			} else {
				m[key] = v
			}
		}
	}
}

// TermFrequency returns the recorded access count for t (Formula 2 input).
func (m *Manager) TermFrequency(t workload.TermID) int64 { return m.termFreq[t] }

// QueryFrequency returns the recorded lookup count for query qid.
func (m *Manager) QueryFrequency(qid uint64) int64 { return m.queryFreq[qid] }

// HotQueries returns up to k query IDs ranked by recorded lookup
// frequency, hottest first (ties broken by ascending qid so the ranking
// is deterministic). The serving layer uses it to seed a frequency-ranked
// warming pass from the query-frequency sketch a warm run accumulated.
func (m *Manager) HotQueries(k int) []uint64 {
	if k <= 0 || len(m.queryFreq) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(m.queryFreq))
	for qid := range m.queryFreq {
		ids = append(ids, qid)
	}
	sort.Slice(ids, func(i, j int) bool {
		fi, fj := m.queryFreq[ids[i]], m.queryFreq[ids[j]]
		if fi != fj {
			return fi > fj
		}
		return ids[i] < ids[j]
	})
	if k < len(ids) {
		ids = ids[:k]
	}
	return ids
}
