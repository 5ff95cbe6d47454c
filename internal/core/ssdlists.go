package core

import (
	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// icBase returns the device offset of the inverted-list region of the SSD
// cache file (it follows the result region).
func (m *Manager) icBase() int64 { return m.cfg.SSDResultBytes }

// flushListToSSD handles an inverted list evicted from L1 (Fig 5): data
// selection (Formulas 1–2, TEV), then placement and replacement in the L2
// list region (Fig 13). Under the LRU baseline the whole list is written
// wherever it fits, at entry granularity.
func (m *Manager) flushListToSSD(ml *memList) {
	if m.listExpired(ml.loadedAt) {
		m.record(Event{Kind: EvListExpire, Term: ml.term, Level: LevelMem})
		return
	}
	if m.icLRU == nil || !m.ssdHealthy() {
		// No L2, or the breaker is open: discard instead of writing into a
		// failing device. The list is still fully readable from the index.
		m.record(Event{Kind: EvListDiscard, Term: ml.term})
		return
	}
	if !m.repl.BlockAlignedL2() {
		m.flushListLRU(ml)
		return
	}

	// Formula 1: SC = ceil(SI × PU / SB). SI is the list's full size and
	// PU its utilization rate, so SI × PU is the used prefix — which is
	// exactly the byte length this entry holds in memory. Rounding that up
	// to whole blocks keeps every SSD extent block-aligned (§VI-A).
	si := int64(len(ml.prefix))
	sc := m.scBlocks(si, 1)
	scBytes := sc * m.cfg.BlockBytes

	// Selection: the admission policy decides what is worth flash writes
	// (the paper's EV-vs-TEV check under the cost-based policies; the
	// frequency doorkeeper additionally rejects one-hit wonders).
	if !m.adm.AdmitList(ml.term, sc) || scBytes > m.icLRU.Capacity() {
		m.record(Event{Kind: EvListDiscard, Term: ml.term})
		return
	}

	validBytes := si
	if validBytes > scBytes {
		validBytes = scBytes
	}

	// Unnecessary-write elimination: if the SSD already holds at least as
	// much of this list — a static pin, or a replaceable copy left by an
	// earlier read-back — revalidate instead of rewriting (§VI-C1,
	// write-buffer check). A dynamic overlay larger than a conservative
	// static pin is allowed: it fills the pin's coverage gap.
	if existing := m.ssdListFor(ml.term); existing != nil {
		if existing.validBytes >= validBytes {
			existing.state = stateNormal
			m.record(Event{Kind: EvListElide, Term: ml.term})
			return
		}
		m.dropSSDList(existing)
	}
	if e, ok := m.icLRU.Peek(uint64(ml.term)); ok {
		// A smaller dynamic duplicate may survive behind a static pin that
		// ssdListFor preferred; replace it rather than double-insert.
		m.evictSSDList(e)
	}

	off, ok := m.placeListExtent(scBytes)
	if !ok {
		m.record(Event{Kind: EvListDiscard, Term: ml.term})
		return
	}

	// One large sequential block-aligned write (the data placement win of
	// §VI-B): the prefix padded to whole blocks, staged in the manager's
	// reusable flush buffer (devices copy what they store).
	if int64(cap(m.flushBuf)) < scBytes {
		m.flushBuf = make([]byte, scBytes)
	}
	buf := m.flushBuf[:scBytes]
	clear(buf[copy(buf, ml.prefix[:validBytes]):])
	if err := m.ssdWrite(buf, m.icBase()+off); err != nil {
		// Error accounted by ssdWrite; the list is lost from the cache
		// (still on the HDD) and the failed extent is retired.
		m.quarantine(m.icAlloc, off, scBytes)
		m.record(Event{Kind: EvListDiscard, Term: ml.term})
		return
	}
	m.record(Event{Kind: EvListFlush, Term: ml.term, Bytes: scBytes})

	sl := &ssdList{term: ml.term, off: off, blockBytes: scBytes, validBytes: validBytes, loadedAt: ml.loadedAt}
	m.icLRU.Put(uint64(ml.term), scBytes, sl)
}

// placeListExtent finds a block-aligned extent of scBytes in the list
// region, applying the CBLRU placement ladder of Fig 13:
//
//  1. free space;
//  2. a replaceable same-size entry in the replace-first region;
//  3. any same-size entry in the replace-first region;
//  4. assemble room by evicting replace-first-region entries;
//  5. widen the search to the whole LRU list (the paper's rare worst case).
func (m *Manager) placeListExtent(scBytes int64) (int64, bool) {
	if off, ok := m.icAlloc.AllocAligned(scBytes, m.cfg.BlockBytes); ok {
		return off, true
	}
	window := m.icLRU.TailWindow(m.cfg.WindowW)

	// Steps 2 and 3: in-place overwrite of a same-size entry, replaceable
	// entries first.
	for _, wantReplaceable := range []bool{true, false} {
		for _, e := range window {
			sl := e.Value.(*ssdList)
			if sl.blockBytes != scBytes {
				continue
			}
			if wantReplaceable != (sl.state == stateReplaceable) {
				continue
			}
			off := sl.off
			m.icLRU.RemoveEntry(e)
			m.record(Event{Kind: EvListEvict, Term: sl.term, Level: LevelSSD, Detail: DetailInPlace})
			return off, true
		}
	}

	// Step 4: evict window entries (lowest EV first among the window's
	// LRU-ordered snapshot) until an aligned allocation succeeds.
	for _, e := range window {
		if _, stillThere := m.icLRU.Peek(e.Key); !stillThere {
			continue
		}
		m.evictSSDList(e)
		if off, ok := m.icAlloc.AllocAligned(scBytes, m.cfg.BlockBytes); ok {
			return off, true
		}
	}

	// Step 5: whole-list sweep, LRU to MRU.
	var off int64
	ok := false
	m.icLRU.Ascend(func(e *cache.Entry) bool {
		m.evictSSDList(e)
		off, ok = m.icAlloc.AllocAligned(scBytes, m.cfg.BlockBytes)
		return !ok
	})
	if ok {
		m.record(Event{Kind: EvPlacementWorstCase})
	}
	return off, ok
}

// evictSSDList removes a dynamic L2 list entry, returns its extent to the
// allocator and trims it on the device.
func (m *Manager) evictSSDList(e *cache.Entry) {
	sl := e.Value.(*ssdList)
	m.icLRU.RemoveEntry(e)
	m.icAlloc.Free(sl.off, sl.blockBytes)
	m.ssdTrim(m.icBase()+sl.off, sl.blockBytes)
	m.record(Event{Kind: EvListEvict, Term: sl.term, Level: LevelSSD})
}

// quarantineSSDList retires an L2 list entry whose device range failed:
// the entry is unmapped and its extent quarantined instead of freed (and
// not trimmed — the range is abandoned, not recycled). Works for both
// dynamic entries and static pins; a pin that cannot be read is worthless.
func (m *Manager) quarantineSSDList(sl *ssdList) {
	if sl.static {
		delete(m.icStatic, sl.term)
	} else if e, ok := m.icLRU.Peek(uint64(sl.term)); ok && e.Value.(*ssdList) == sl {
		m.icLRU.RemoveEntry(e)
	}
	m.quarantine(m.icAlloc, sl.off, sl.blockBytes)
	m.record(Event{Kind: EvListEvict, Term: sl.term, Level: LevelSSD})
}

// dropSSDList removes a specific term's dynamic entry (used before
// rewriting a larger prefix for the same term).
func (m *Manager) dropSSDList(sl *ssdList) {
	if sl.static {
		return
	}
	if e, ok := m.icLRU.Peek(uint64(sl.term)); ok {
		m.evictSSDList(e)
	}
}

// flushListLRU is the baseline path: the entire list is written to the SSD
// at byte granularity wherever the allocator finds room, evicting strictly
// by recency. No alignment, no selection, no trim — the write pattern the
// paper blames for block erasures.
func (m *Manager) flushListLRU(ml *memList) {
	size := int64(len(ml.prefix))
	if size == 0 || size > m.icLRU.Capacity() {
		m.record(Event{Kind: EvListDiscard, Term: ml.term})
		return
	}
	if old, ok := m.icLRU.Peek(uint64(ml.term)); ok {
		// Baseline rewrites unconditionally; free the stale copy first.
		sl := old.Value.(*ssdList)
		m.icLRU.RemoveEntry(old)
		m.icAlloc.Free(sl.off, sl.blockBytes)
		m.record(Event{Kind: EvListEvict, Term: sl.term, Level: LevelSSD})
	}
	var off int64
	for {
		var ok bool
		if off, ok = m.icAlloc.Alloc(size); ok {
			break
		}
		lru := m.icLRU.LRUEntry()
		if lru == nil {
			m.record(Event{Kind: EvListDiscard, Term: ml.term})
			return
		}
		sl := lru.Value.(*ssdList)
		m.icLRU.RemoveEntry(lru)
		m.icAlloc.Free(sl.off, sl.blockBytes)
		m.record(Event{Kind: EvListEvict, Term: sl.term, Level: LevelSSD})
	}
	if err := m.ssdWrite(ml.prefix, m.icBase()+off); err != nil {
		m.quarantine(m.icAlloc, off, size)
		m.record(Event{Kind: EvListDiscard, Term: ml.term})
		return
	}
	m.record(Event{Kind: EvListFlush, Term: ml.term, Bytes: size})
	m.icLRU.Put(uint64(ml.term), size, &ssdList{
		term: ml.term, off: off, blockBytes: size, validBytes: size, loadedAt: ml.loadedAt,
	})
}

// PinList loads the first scBlocks-sized prefix of term t (per Formulas
// 1–2 with the current PU estimate) into the static partition of the L2
// list region. It returns false when the static budget cannot hold the
// entry. Only meaningful under CBSLRU; see Manager.StaticListBudget.
func (m *Manager) PinList(t workload.TermID) bool {
	if !m.repl.UsesStaticPartition() || m.icLRU == nil {
		return false
	}
	if _, ok := m.icStatic[t]; ok {
		return true
	}
	if !m.ssdHealthy() {
		return false
	}
	total := m.ix.ListBytes(t)
	si := int64(float64(total) * m.pu(t))
	if si < 1 {
		si = 1
	}
	sc := m.scBlocks(si, 1) // si is already the used size; PU applied once
	scBytes := sc * m.cfg.BlockBytes
	if m.staticListBytes()+scBytes > m.StaticListBudget() {
		return false
	}
	off, ok := m.icAlloc.AllocAligned(scBytes, m.cfg.BlockBytes)
	if !ok {
		return false
	}
	validBytes := si
	if validBytes > scBytes {
		validBytes = scBytes
	}
	if validBytes > total {
		validBytes = total
	}
	buf := make([]byte, scBytes)
	if err := m.ix.ReadListRange(t, 0, buf[:validBytes]); err != nil {
		m.icAlloc.Free(off, scBytes)
		return false
	}
	if err := m.ssdWrite(buf, m.icBase()+off); err != nil {
		m.quarantine(m.icAlloc, off, scBytes)
		return false
	}
	m.record(Event{Kind: EvListFlush, Term: t, Bytes: scBytes})
	m.icStatic[t] = &ssdList{
		term: t, off: off, blockBytes: scBytes, validBytes: validBytes, static: true,
	}
	return true
}

// StaticListBudget returns the byte budget of the static list partition.
func (m *Manager) StaticListBudget() int64 {
	if !m.repl.UsesStaticPartition() || m.icLRU == nil {
		return 0
	}
	return int64(float64(m.cfg.SSDListBytes) * m.cfg.StaticFraction)
}

func (m *Manager) staticListBytes() int64 {
	var n int64
	for _, sl := range m.icStatic {
		n += sl.blockBytes
	}
	return n
}

// StaticPinnedLists returns the pinned term set (for inspection).
func (m *Manager) StaticPinnedLists() []workload.TermID {
	out := make([]workload.TermID, 0, len(m.icStatic))
	for t := range m.icStatic {
		out = append(out, t)
	}
	return out
}
