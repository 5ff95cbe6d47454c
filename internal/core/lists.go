package core

import (
	"fmt"

	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// maxL1EntryShare caps a single L1 list entry at this fraction of the list
// cache, so one giant inverted list cannot monopolize (or overflow) L1.
const maxL1EntryShare = 2

// ReadListRange implements engine.ListSource: it serves list bytes from the
// memory cache, then the SSD cache, then the backing index, charging each
// level's simulated cost, and caches what it read according to the active
// policy. This is the paper's Query Management path for inverted lists.
func (m *Manager) ReadListRange(t workload.TermID, off int64, p []byte) error {
	total := m.ix.ListBytes(t)
	if off < 0 || off+int64(len(p)) > total {
		return fmt.Errorf("core: term %d range [%d,+%d) outside %d-byte list",
			t, off, len(p), total)
	}
	m.noteTermAccess(t)
	m.record(Event{Kind: EvListRange, Term: t, Bytes: int64(len(p))})

	pos := off
	end := off + int64(len(p))

	// Level 1: memory prefix.
	var l1 *memList
	if e, ok := m.ic.Get(uint64(t)); ok {
		l1 = e.Value.(*memList)
		if m.listExpired(l1.loadedAt) {
			m.ic.RemoveEntry(e)
			m.repl.NoteL1ListEvict(t)
			m.record(Event{Kind: EvListExpire, Term: t, Level: LevelMem})
			l1 = nil
		} else {
			m.repl.NoteL1ListHit(t)
		}
	}
	if l1 != nil {
		if pos < int64(len(l1.prefix)) {
			n := int64(len(l1.prefix)) - pos
			if end-pos < n {
				n = end - pos
			}
			copy(p[:n], l1.prefix[pos:pos+n])
			m.memCost(int(n))
			m.record(Event{Kind: EvListRead, Term: t, Level: LevelMem, Bytes: n})
			pos += n
		}
	}

	// Level 2: SSD-cached prefix. A device failure here must not fail the
	// query — the same bytes exist in the backing index, so a failed (or
	// breaker-gated) SSD read simply leaves pos where it is and the next
	// stage serves the remainder from the HDD.
	if pos < end {
		if sl := m.ssdListFor(t); sl != nil && pos < sl.validBytes {
			switch {
			case !m.ssdHealthy():
				m.noteDegraded()
			default:
				n := sl.validBytes - pos
				if end-pos < n {
					n = end - pos
				}
				if err := m.ssdRead(p[pos-off:pos-off+n], m.icBase()+sl.off+pos); err != nil {
					// Error accounted by ssdRead; retire the failing extent
					// so it is neither re-read nor re-allocated.
					m.quarantineSSDList(sl)
				} else {
					m.record(Event{Kind: EvListRead, Term: t, Level: LevelSSD, Bytes: n})
					pos += n
					m.onSSDListHit(t, sl)
				}
			}
		}
	}

	// Backing store: the on-disk index.
	hddTail := false
	if pos < end {
		if err := m.ix.ReadListRange(t, pos, p[pos-off:]); err != nil {
			return fmt.Errorf("core: index read: %w", err)
		}
		m.record(Event{Kind: EvListRead, Term: t, Level: LevelHDD, Bytes: end - pos})
		pos = end
		hddTail = true
	}

	m.fillL1List(t, l1, off, p, total, hddTail)
	return nil
}

// ssdListFor returns the L2 entry for t: the static pin or the dynamic
// entry, whichever covers more of the list (a dynamic overlay may exceed a
// conservatively sized pin). Looking a dynamic entry up promotes it.
func (m *Manager) ssdListFor(t workload.TermID) *ssdList {
	var static *ssdList
	if sl, ok := m.icStatic[t]; ok {
		static = sl
	}
	if m.icLRU == nil {
		return static
	}
	if e, ok := m.icLRU.Get(uint64(t)); ok {
		dyn := e.Value.(*ssdList)
		if m.listExpired(dyn.loadedAt) {
			m.evictSSDList(e)
			m.record(Event{Kind: EvListExpire, Term: t, Level: LevelSSD})
		} else if static == nil || dyn.validBytes > static.validBytes {
			return dyn
		}
	}
	return static
}

// onSSDListHit applies the hybrid-scheme state change of Fig 9: data read
// back from SSD to memory flips the entry to replaceable (the SSD copy may
// now be overwritten first) under the cost-based policies. Static entries
// never change state.
func (m *Manager) onSSDListHit(t workload.TermID, sl *ssdList) {
	if sl.static || !m.repl.FlipReplaceableOnHit() {
		return
	}
	sl.state = stateReplaceable
}

// fillL1List caches the bytes just served into the L1 prefix for t,
// respecting the policy's caching unit: the cost-based policies cache the
// contiguous used prefix (rounded up by the readahead quantum when the
// disk head is already positioned past the tail); plain LRU caches the
// whole list (classic list caching, the baseline's capacity handicap the
// paper calls out in §VII-A).
func (m *Manager) fillL1List(t workload.TermID, l1 *memList, off int64, p []byte, total int64, hddTail bool) {
	capBytes := m.ic.Capacity() / maxL1EntryShare

	// First-touch admission gate (the bidirectional filter's upward
	// direction); extensions of a resident prefix are always allowed.
	if l1 == nil && !m.repl.AdmitNewL1List(t) {
		return
	}

	if m.repl.WholeListL1() {
		if l1 != nil {
			return // whole list already resident
		}
		if total > capBytes {
			m.record(Event{Kind: EvListTooLarge, Term: t})
			return
		}
		whole := make([]byte, total)
		// Reuse the bytes already in hand; fetch the rest from the
		// hierarchy below L1 (SSD prefix if cached, index otherwise).
		copy(whole[off:], p)
		if off > 0 {
			m.readThrough(t, 0, whole[:off])
		}
		if rest := total - (off + int64(len(p))); rest > 0 {
			m.readThrough(t, off+int64(len(p)), whole[off+int64(len(p)):])
		}
		m.insertL1List(t, whole)
		return
	}

	// Cost-based policies: grow the contiguous prefix. Extension is only
	// possible when the served range connects to the existing prefix.
	have := int64(0)
	if l1 != nil {
		have = int64(len(l1.prefix))
	}
	endPos := off + int64(len(p))
	if off > have || endPos <= have {
		return // gap, or nothing new
	}
	if endPos > capBytes {
		m.record(Event{Kind: EvListTooLarge, Term: t})
		return
	}

	// Readahead: the head just streamed to endPos, so extending the
	// prefix to the next quantum boundary costs transfer time only and
	// absorbs the small termination-point variance between queries.
	target := endPos
	if hddTail && m.cfg.PrefetchQuantum > 0 {
		q := m.cfg.PrefetchQuantum
		target = (endPos + q - 1) / q * q
		if target > total {
			target = total
		}
		if target > capBytes {
			target = endPos
		}
	}

	grown := make([]byte, target)
	if l1 != nil {
		copy(grown, l1.prefix)
	}
	copy(grown[off:], p)
	if target > endPos {
		m.readThrough(t, endPos, grown[endPos:])
		m.record(Event{Kind: EvListPrefetch, Term: t, Bytes: target - endPos})
	}

	if l1 == nil {
		m.insertL1List(t, grown)
		return
	}
	e, _ := m.ic.Peek(uint64(t))
	need := int64(len(grown)) - e.Size
	m.makeRoomIC(need, e)
	if !m.ic.Fits(need) {
		return // could not free enough without touching this entry
	}
	l1.prefix = grown
	m.ic.Resize(e, int64(len(grown)))
	m.memCost(int(need))
}

// readThrough reads list bytes from below L1 (SSD prefix then index),
// without touching L1 state. Used by whole-list fetches and readahead. An
// SSD failure falls through to the index, and events are only recorded for
// bytes actually delivered — a failed read must not count as served traffic.
func (m *Manager) readThrough(t workload.TermID, off int64, p []byte) {
	pos := off
	end := off + int64(len(p))
	if sl := m.ssdListFor(t); sl != nil && pos < sl.validBytes {
		switch {
		case !m.ssdHealthy():
			m.noteDegraded()
		default:
			n := sl.validBytes - pos
			if end-pos < n {
				n = end - pos
			}
			if err := m.ssdRead(p[:n], m.icBase()+sl.off+pos); err != nil {
				m.quarantineSSDList(sl)
			} else {
				m.record(Event{Kind: EvListRead, Term: t, Level: LevelSSD, Detail: DetailReadThrough, Bytes: n})
				pos += n
			}
		}
	}
	if pos < end {
		if err := m.ix.ReadListRange(t, pos, p[pos-off:]); err == nil {
			m.record(Event{Kind: EvListRead, Term: t, Level: LevelHDD, Detail: DetailReadThrough, Bytes: end - pos})
		}
	}
}

// insertL1List makes room and inserts a fresh L1 entry for t.
func (m *Manager) insertL1List(t workload.TermID, data []byte) {
	size := int64(len(data))
	if size == 0 || size > m.ic.Capacity()/maxL1EntryShare {
		return
	}
	m.makeRoomIC(size, nil)
	if !m.ic.Fits(size) {
		return
	}
	m.ic.Put(uint64(t), size, &memList{term: t, prefix: data, loadedAt: m.clock.Now()})
	m.repl.NoteL1ListInsert(t)
	m.memCost(int(size))
}

// makeRoomIC evicts L1 list entries until need bytes fit, never evicting
// exclude. Victim choice is the policy's: strict LRU for the baseline, or
// minimum efficiency value within the replace-first window for the
// cost-based policies (Fig 12).
func (m *Manager) makeRoomIC(need int64, exclude *cache.Entry) {
	for !m.ic.Fits(need) {
		victim := m.chooseL1ListVictim(exclude)
		if victim == nil {
			return
		}
		ml := victim.Value.(*memList)
		m.ic.RemoveEntry(victim)
		m.repl.NoteL1ListEvict(ml.term)
		m.record(Event{Kind: EvListEvict, Term: ml.term, Level: LevelMem})
		m.flushListToSSD(ml)
	}
}

// chooseL1ListVictim picks the next L1 list eviction victim by delegating
// to the active replacement policy.
func (m *Manager) chooseL1ListVictim(exclude *cache.Entry) *cache.Entry {
	return m.repl.ChooseL1ListVictim(exclude)
}
