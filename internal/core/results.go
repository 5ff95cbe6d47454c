package core

import (
	"fmt"
)

// ResultSource says where a result-cache hit was served from.
type ResultSource int

// Result lookup outcomes.
const (
	ResultMiss ResultSource = iota
	ResultFromMemory
	ResultFromSSD
)

// GetResult looks a query's cached result entry up: L1, then the write
// buffer (still memory), then the L2 result cache on SSD. A hit is copied
// to the caller and — per the hybrid scheme — an SSD hit is promoted to L1
// while the SSD copy goes replaceable (Fig 9).
func (m *Manager) GetResult(qid uint64) ([]byte, ResultSource) {
	bumpFreq(m.queryFreq, qid, m.cfg.FreqCap)

	if e, ok := m.rc.Get(qid); ok {
		mr := e.Value.(*memResult)
		if m.resultExpired(mr.loadedAt) {
			m.rc.RemoveEntry(e)
			m.record(Event{Kind: EvResultExpire, Level: LevelMem})
		} else {
			m.memCost(len(mr.data))
			m.record(Event{Kind: EvResultHit, Level: LevelMem, Bytes: int64(len(mr.data))})
			return mr.data, ResultFromMemory
		}
	}
	for _, b := range m.writeBuf {
		if b.qid == qid && !m.resultExpired(b.loadedAt) {
			m.memCost(len(b.data))
			m.record(Event{Kind: EvResultHit, Level: LevelMem, Bytes: int64(len(b.data))})
			return b.data, ResultFromMemory
		}
	}
	if loc, ok := m.resultLoc[qid]; ok {
		if !loc.rb.static && m.resultExpired(loc.loadedAt) {
			m.expireSSDResult(loc)
			m.record(Event{Kind: EvResultMiss})
			return nil, ResultMiss
		}
		if !m.ssdHealthy() {
			// Breaker open: route around the SSD tier. The mapping stays —
			// the entry may still be readable once the breaker closes.
			m.noteDegraded()
			m.record(Event{Kind: EvResultMiss})
			return nil, ResultMiss
		}
		data := make([]byte, m.cfg.ResultEntryBytes)
		off := loc.rb.off + int64(loc.slot)*m.cfg.ResultEntryBytes
		if err := m.ssdRead(data, off); err == nil {
			m.record(Event{Kind: EvResultHit, Level: LevelSSD, Bytes: int64(len(data))})
			// Promotion is the policy's call (the bidirectional filter
			// serves straight from SSD until repeat demand); the Fig 9
			// replaceable flip only applies when the data actually moved up.
			promote := m.repl.PromoteResultToL1(qid)
			if !loc.rb.static && m.repl.FlipReplaceableOnHit() && promote {
				loc.state = stateReplaceable
			}
			if m.rbLRU != nil && !loc.rb.static {
				if e, ok := m.rbLRU.Peek(loc.rb.num); ok {
					m.rbLRU.Touch(e)
				}
			}
			if promote {
				m.putResultL1(qid, data)
			}
			return data, ResultFromSSD
		}
		// Read failure (error already accounted by ssdRead). A dynamic
		// extent that failed a read is retired and quarantined — on real
		// SSDs a failing range tends to keep failing, so re-reading or
		// re-allocating it would convert one fault into many. Static RBs
		// are left in place (the breaker guards repeated failures; the
		// static partition is rebuilt offline).
		if !loc.rb.static {
			if !m.repl.BlockAlignedL2() {
				m.quarantineLRUResult(loc)
			} else {
				m.quarantineRB(loc.rb)
			}
		}
	}
	m.record(Event{Kind: EvResultMiss})
	return nil, ResultMiss
}

// expireSSDResult removes a TTL-expired dynamic SSD result entry with full
// accounting: the expiry and the eviction are both recorded (DESIGN §9)
// and the slot's bytes are trimmed. Under the LRU baseline the whole
// pseudo-RB is released; under the cost-based policies only the slot is
// invalidated (the RB lives on for IREN-based replacement).
func (m *Manager) expireSSDResult(loc *ssdResult) {
	m.record(Event{Kind: EvResultExpire, Level: LevelSSD})
	if !m.repl.BlockAlignedL2() {
		m.freeLRUResult(loc)
		return
	}
	loc.rb.slots[loc.slot] = nil
	delete(m.resultLoc, loc.qid)
	m.ssdTrim(loc.rb.off+int64(loc.slot)*m.cfg.ResultEntryBytes, m.cfg.ResultEntryBytes)
	m.record(Event{Kind: EvResultEvict, Level: LevelSSD})
}

// quarantineRB retires a dynamic result block whose device range failed:
// mappings are dropped and the extent is quarantined (never re-allocated)
// instead of freed. No trim — the range is being abandoned, not recycled.
func (m *Manager) quarantineRB(rb *resultBlock) {
	for _, loc := range rb.slots {
		if loc != nil {
			delete(m.resultLoc, loc.qid)
		}
	}
	if e, ok := m.rbLRU.Peek(rb.num); ok {
		m.rbLRU.RemoveEntry(e)
	}
	m.quarantine(m.rcAlloc, rb.off, m.cfg.BlockBytes)
	m.record(Event{Kind: EvResultEvict, Level: LevelSSD, Detail: DetailRB})
}

// quarantineLRUResult is the baseline counterpart of quarantineRB for a
// single-entry pseudo-RB.
func (m *Manager) quarantineLRUResult(loc *ssdResult) {
	delete(m.resultLoc, loc.qid)
	if e, ok := m.rbLRU.Peek(loc.rb.num); ok {
		m.rbLRU.RemoveEntry(e)
	}
	m.quarantine(m.rcAlloc, loc.rb.off, m.cfg.ResultEntryBytes)
	m.record(Event{Kind: EvResultEvict, Level: LevelSSD})
}

// PutResult caches a freshly computed result entry in L1. The entry must
// be exactly ResultEntryBytes long (the paper's fixed-length entries);
// shorter payloads are padded by the caller via PadResult.
//
// Result entries are immutable per query ID: the paper's evaluation is the
// static scenario (§IV-B), where recomputing a query always yields the same
// entry. Re-putting an ID refreshes recency, not content.
func (m *Manager) PutResult(qid uint64, data []byte) error {
	if int64(len(data)) != m.cfg.ResultEntryBytes {
		return fmt.Errorf("core: result entry %d bytes, want %d", len(data), m.cfg.ResultEntryBytes)
	}
	m.putResultL1(qid, data)
	return nil
}

// PadResult pads an encoded result to the fixed entry size.
func (m *Manager) PadResult(data []byte) []byte {
	if int64(len(data)) >= m.cfg.ResultEntryBytes {
		return data[:m.cfg.ResultEntryBytes]
	}
	out := make([]byte, m.cfg.ResultEntryBytes)
	copy(out, data)
	return out
}

// putResultL1 inserts into the L1 result cache, evicting LRU entries into
// the SSD path as needed (§VI-C1: L1 RC victims are chosen by LRU under
// every policy; the policies differ below L1).
func (m *Manager) putResultL1(qid uint64, data []byte) {
	if e, ok := m.rc.Peek(qid); ok {
		if !m.resultExpired(e.Value.(*memResult).loadedAt) {
			m.rc.Touch(e)
			return
		}
		m.rc.RemoveEntry(e) // refresh expired content below
		m.record(Event{Kind: EvResultExpire, Level: LevelMem})
	}
	size := int64(len(data))
	for !m.rc.Fits(size) {
		victim := m.rc.LRUEntry()
		if victim == nil {
			return
		}
		m.rc.RemoveEntry(victim)
		m.record(Event{Kind: EvResultEvict, Level: LevelMem})
		mr := victim.Value.(*memResult)
		m.evictResultToSSD(victim.Key, mr)
	}
	m.rc.Put(qid, size, &memResult{data: data, loadedAt: m.clock.Now()})
	m.memCost(int(size))
}

// evictResultToSSD routes an L1 result eviction to the L2 result cache.
// Expired entries are dropped instead of flushed: stale data is not worth
// SSD writes.
func (m *Manager) evictResultToSSD(qid uint64, mr *memResult) {
	if m.resultExpired(mr.loadedAt) {
		m.record(Event{Kind: EvResultExpire, Level: LevelMem})
		return
	}
	if m.rbLRU == nil {
		m.dropResults(1)
		return
	}
	if !m.repl.BlockAlignedL2() {
		m.evictResultLRU(qid, mr.data)
		return
	}

	// Write-buffer check (Fig 10): if the SSD already holds a valid copy
	// (left replaceable by an earlier read-back), revalidate it and skip
	// the write entirely.
	if loc, ok := m.resultLoc[qid]; ok {
		loc.state = stateNormal
		m.record(Event{Kind: EvResultElide})
		return
	}
	if !m.adm.AdmitResult(qid) {
		m.record(Event{Kind: EvResultReject})
		return
	}
	m.writeBuf = append(m.writeBuf, bufferedResult{qid: qid, data: mr.data, loadedAt: mr.loadedAt})
	m.memCost(len(mr.data))
	if len(m.writeBuf) >= m.entriesPerRB {
		m.flushResultBlock()
	}
}

// flushResultBlock assembles entriesPerRB buffered entries into one result
// block and writes it to the SSD as a single block-aligned sequential
// write (Fig 10b), choosing the victim RB by IREN within the replace-first
// region when no free block exists (Fig 11).
func (m *Manager) flushResultBlock() {
	n := m.entriesPerRB
	if len(m.writeBuf) < n {
		return
	}
	batch := m.writeBuf[:n]
	m.writeBuf = append([]bufferedResult(nil), m.writeBuf[n:]...)

	if !m.ssdHealthy() {
		// Breaker open: flushing would hammer the failing device. Drop the
		// batch with accounting instead of letting the buffer grow unbounded.
		m.dropResults(n)
		return
	}

	off, ok := m.rcAlloc.AllocAligned(m.cfg.BlockBytes, m.cfg.BlockBytes)
	if !ok {
		rb := m.chooseVictimRB()
		if rb == nil {
			m.dropResults(n)
			return
		}
		m.retireRB(rb)
		off, ok = m.rcAlloc.AllocAligned(m.cfg.BlockBytes, m.cfg.BlockBytes)
		if !ok {
			m.dropResults(n)
			return
		}
	}

	rb := &resultBlock{num: m.nextRB, off: off, slots: make([]*ssdResult, n)}
	m.nextRB++
	buf := make([]byte, m.cfg.BlockBytes)
	for i, b := range batch {
		copy(buf[int64(i)*m.cfg.ResultEntryBytes:], b.data)
		loc := &ssdResult{qid: b.qid, rb: rb, slot: i, loadedAt: b.loadedAt}
		rb.slots[i] = loc
		m.resultLoc[b.qid] = loc
	}
	if err := m.ssdWrite(buf, off); err != nil {
		// The write failed (error accounted by ssdWrite): quarantine the
		// extent so the bad range is not immediately re-allocated, and
		// re-queue each entry once — a second failure drops it, counted.
		m.quarantine(m.rcAlloc, off, m.cfg.BlockBytes)
		for _, b := range batch {
			delete(m.resultLoc, b.qid)
			if b.requeued {
				m.dropResults(1)
				continue
			}
			b.requeued = true
			m.writeBuf = append(m.writeBuf, b)
			m.record(Event{Kind: EvResultRequeue})
		}
		return
	}
	m.record(Event{Kind: EvResultFlush, Detail: DetailRB, Bytes: m.cfg.BlockBytes})
	m.rbLRU.Put(rb.num, m.cfg.BlockBytes, rb)
}

// chooseVictimRB returns the RB with the largest IREN inside the
// replace-first region (Fig 11), or the plain LRU block if the region is
// empty. Returns nil when no dynamic RB exists.
func (m *Manager) chooseVictimRB() *resultBlock {
	window := m.rbLRU.TailWindow(m.cfg.WindowW)
	if len(window) == 0 {
		return nil
	}
	best := window[0].Value.(*resultBlock)
	bestIREN := best.iren()
	for _, e := range window[1:] {
		rb := e.Value.(*resultBlock)
		if ir := rb.iren(); ir > bestIREN {
			best, bestIREN = rb, ir
		}
	}
	return best
}

// retireRB invalidates an RB's remaining entries and frees its extent.
func (m *Manager) retireRB(rb *resultBlock) {
	for _, loc := range rb.slots {
		if loc != nil {
			delete(m.resultLoc, loc.qid)
		}
	}
	if e, ok := m.rbLRU.Peek(rb.num); ok {
		m.rbLRU.RemoveEntry(e)
	}
	m.rcAlloc.Free(rb.off, m.cfg.BlockBytes)
	m.ssdTrim(rb.off, m.cfg.BlockBytes)
	m.record(Event{Kind: EvResultEvict, Level: LevelSSD, Detail: DetailRB})
}

// evictResultLRU is the baseline path: the 20 KB entry is written
// immediately at whatever unaligned offset the allocator yields — the
// small-random-write storm of §VI-C1 — evicting strictly by recency.
func (m *Manager) evictResultLRU(qid uint64, data []byte) {
	size := int64(len(data))
	if !m.ssdHealthy() {
		m.dropResults(1)
		return
	}
	if old, ok := m.resultLoc[qid]; ok {
		m.freeLRUResult(old)
	}
	var off int64
	for {
		var ok bool
		if off, ok = m.rcAlloc.Alloc(size); ok {
			break
		}
		e := m.rbLRU.LRUEntry()
		if e == nil {
			m.dropResults(1)
			return
		}
		m.freeLRUResult(e.Value.(*resultBlock).slots[0])
	}
	// Baseline entries are modelled as single-slot pseudo-RBs so the same
	// bookkeeping serves both layouts.
	rb := &resultBlock{num: m.nextRB, off: off, slots: make([]*ssdResult, 1)}
	m.nextRB++
	loc := &ssdResult{qid: qid, rb: rb, slot: 0, loadedAt: m.clock.Now()}
	rb.slots[0] = loc
	if err := m.ssdWrite(data, off); err != nil {
		// Accounted loss: the entry is gone and the failed range is retired.
		m.quarantine(m.rcAlloc, off, size)
		m.dropResults(1)
		return
	}
	m.record(Event{Kind: EvResultFlush, Bytes: size})
	m.resultLoc[qid] = loc
	m.rbLRU.Put(rb.num, size, rb)
}

// freeLRUResult releases a baseline pseudo-RB.
func (m *Manager) freeLRUResult(loc *ssdResult) {
	delete(m.resultLoc, loc.qid)
	if e, ok := m.rbLRU.Peek(loc.rb.num); ok {
		m.rbLRU.RemoveEntry(e)
	}
	m.rcAlloc.Free(loc.rb.off, m.cfg.ResultEntryBytes)
	m.record(Event{Kind: EvResultEvict, Level: LevelSSD})
}

// dropResults accounts n evicted result entries lost instead of flushed.
func (m *Manager) dropResults(n int) {
	for i := 0; i < n; i++ {
		m.record(Event{Kind: EvResultDrop})
	}
}

// PinResult stores an encoded result entry in the static partition of the
// L2 result cache (CBSLRU). Entries are packed into static RBs that are
// never replaced. Returns false when the static budget is exhausted.
func (m *Manager) PinResult(qid uint64, data []byte) bool {
	if !m.repl.UsesStaticPartition() || m.rbLRU == nil {
		return false
	}
	if _, ok := m.resultLoc[qid]; ok {
		return true
	}
	if !m.ssdHealthy() {
		return false
	}
	data = m.PadResult(data)

	// Find (or open) a static RB with a free slot. Static slots are never
	// vacated, so the first-free cursor only moves forward: pinning N
	// entries costs O(N), not O(N²) rescans of already-full RBs.
	var rb *resultBlock
	for m.staticRBScan < len(m.staticRBs) {
		if cand := m.staticRBs[m.staticRBScan]; cand.freeSlot() >= 0 {
			rb = cand
			break
		}
		m.staticRBScan++
	}
	if rb == nil {
		if int64(len(m.staticRBs)+1)*m.cfg.BlockBytes > m.StaticResultBudget() {
			return false
		}
		off, ok := m.rcAlloc.AllocAligned(m.cfg.BlockBytes, m.cfg.BlockBytes)
		if !ok {
			return false
		}
		rb = &resultBlock{num: m.nextRB, off: off, slots: make([]*ssdResult, m.entriesPerRB), static: true}
		m.nextRB++
		m.staticRBs = append(m.staticRBs, rb)
	}
	i := rb.freeSlot()
	if i < 0 {
		return false
	}
	off := rb.off + int64(i)*m.cfg.ResultEntryBytes
	if err := m.ssdWrite(data, off); err != nil {
		// Error accounted by ssdWrite; the slot stays open for a retry and
		// the breaker stops a persistently failing device from being pinned
		// against repeatedly.
		return false
	}
	m.record(Event{Kind: EvResultFlush, Bytes: int64(len(data))})
	loc := &ssdResult{qid: qid, rb: rb, slot: i}
	rb.slots[i] = loc
	m.resultLoc[qid] = loc
	return true
}

// StaticResultBudget returns the byte budget of the static result
// partition.
func (m *Manager) StaticResultBudget() int64 {
	if !m.repl.UsesStaticPartition() || m.rbLRU == nil {
		return 0
	}
	return int64(float64(m.cfg.SSDResultBytes) * m.cfg.StaticFraction)
}

// WriteBufferLen returns the number of result entries awaiting RB assembly.
func (m *Manager) WriteBufferLen() int { return len(m.writeBuf) }

// FlushWriteBuffer forces assembly of any full RBs and reports how many
// entries remain buffered (used at experiment end). The loop is progress-
// checked: a flush that re-queues its whole batch after a write failure
// leaves the buffer length unchanged, and retrying immediately would spin.
func (m *Manager) FlushWriteBuffer() int {
	for len(m.writeBuf) >= m.entriesPerRB {
		before := len(m.writeBuf)
		m.flushResultBlock()
		if len(m.writeBuf) >= before {
			break
		}
	}
	return len(m.writeBuf)
}
