package core

import (
	"fmt"
	"time"

	"hybridstore/internal/cache"
	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// entryState tracks the paper's SSD entry life cycle (Figs 8–9): a normal
// entry is valid and read-only; a replaceable entry is still readable but
// may be overwritten first (its content has been copied back to memory).
type entryState uint8

const (
	stateNormal entryState = iota
	stateReplaceable
)

// memList is an L1 inverted-list cache entry: the contiguous prefix of a
// term's list that query processing has touched (Fig 6b).
type memList struct {
	term     workload.TermID
	prefix   []byte
	loadedAt time.Duration // simulated insertion time, for ListTTL
}

// ssdList is an L2 inverted-list cache entry: a block-aligned prefix of the
// list stored in the SSD cache file (Fig 7c).
type ssdList struct {
	term       workload.TermID
	off        int64 // device offset, block-aligned
	blockBytes int64 // extent length, whole blocks (SC × SB)
	validBytes int64 // prefix bytes actually present (≤ blockBytes)
	state      entryState
	static     bool
	loadedAt   time.Duration // age of the content, for ListTTL
}

// ssdResult locates one cached result entry inside a result block (Fig 7a).
type ssdResult struct {
	qid      uint64
	rb       *resultBlock
	slot     int
	state    entryState
	loadedAt time.Duration // age of the content, for ResultTTL
}

// resultBlock is one 128 KB "RB": the placement and replacement unit of the
// L2 result cache (Fig 7b). Slots hold fixed-size result entries; nil slots
// are invalid (overwritten or never filled).
type resultBlock struct {
	num    uint64
	off    int64 // device offset, block-aligned
	slots  []*ssdResult
	static bool
}

// iren returns the invalid-result-entry number of Fig 11: empty slots plus
// replaceable entries.
func (rb *resultBlock) iren() int {
	n := 0
	for _, s := range rb.slots {
		if s == nil || s.state == stateReplaceable {
			n++
		}
	}
	return n
}

// validCount returns the number of normal (valid, non-replaceable) entries.
func (rb *resultBlock) validCount() int { return len(rb.slots) - rb.iren() }

// freeSlot returns the index of the first empty slot, or -1 when full.
func (rb *resultBlock) freeSlot() int {
	for i, s := range rb.slots {
		if s == nil {
			return i
		}
	}
	return -1
}

// bufferedResult is one evicted result entry waiting in the write buffer
// for RB assembly (Fig 10b).
type bufferedResult struct {
	qid      uint64
	data     []byte
	loadedAt time.Duration
	// requeued marks an entry whose RB flush already failed once; a second
	// failure drops it (bounded retries keep the buffer from pinning
	// unflushable data forever).
	requeued bool
}

// memResult is an L1 result-cache payload.
type memResult struct {
	data     []byte
	loadedAt time.Duration
}

// Manager is the paper's cache manager (Fig 2): selection management,
// query management and replacement management over a memory L1, an SSD L2
// and the backing index store.
//
// Manager is not safe for concurrent use; the simulation driver serializes
// queries, as the paper's single-node evaluation does.
type Manager struct {
	cfg   Config
	clock *simclock.Clock
	ix    *index.Index
	ssd   storage.Device // nil = one-level cache (memory only)

	// repl and adm are the pluggable policy pair built from the registry
	// for cfg.Policy (see policy.go).
	repl ReplacementPolicy
	adm  AdmissionPolicy

	nsPerByteMem float64

	// L1.
	rc *cache.List // queryID -> []byte (encoded result entry)
	ic *cache.List // termID -> *memList

	// L2 result cache.
	entriesPerRB int
	rbLRU        *cache.List // RB num -> *resultBlock (dynamic RBs only)
	resultLoc    map[uint64]*ssdResult
	rcAlloc      *storage.Allocator
	writeBuf     []bufferedResult
	nextRB       uint64
	staticRBs    []*resultBlock

	// L2 inverted-list cache.
	icLRU    *cache.List // termID -> *ssdList (dynamic entries only)
	icAlloc  *storage.Allocator
	icStatic map[workload.TermID]*ssdList
	flushBuf []byte // list-flush staging, grown to the largest extent written

	// Frequency and utilization tracking for Formulas 1–2.
	termFreq   map[workload.TermID]int64
	queryFreq  map[uint64]int64
	puMeasured map[workload.TermID]float64

	// Per-query situation tracking (Table I).
	curQuery       uint64
	curQueryActive bool
	curResultSrc   sourceSet
	curTerms       []termSource // in first-access order

	// events, when set, receives fine-grained manager events (see events.go).
	events func(Event)

	// ssdBusyUntil is the simulated time at which the SSD finishes its
	// queued background work. Cache flushes are asynchronous (the paper's
	// write buffer decouples them from queries), but they occupy the
	// device: foreground reads arriving before the horizon must wait,
	// which is how background write pressure degrades read latency (§VII-D).
	ssdBusyUntil time.Duration

	// SSD circuit breaker: consecutive device failures trip it, after
	// which the manager serves around the L2 tier until the cooldown
	// (simulated time) passes.
	ssdFailStreak    int
	breakerOpenUntil time.Duration

	// staticRBScan is the first-free cursor into staticRBs for PinResult:
	// static slots are never vacated, so RBs fill monotonically and the
	// cursor only moves forward.
	staticRBScan int

	stats Stats
}

// New builds a cache manager over the backing index ix, with ssd as the L2
// device (nil for a one-level, memory-only cache).
//
// The backing index's device must share clock. The SSD cache device must
// be bound to its OWN private clock: the manager charges foreground SSD
// read time onto the shared clock itself (including queueing behind
// background flushes) and treats SSD writes as background work that only
// pushes the device's busy horizon.
func New(clock *simclock.Clock, ix *index.Index, ssd storage.Device, cfg Config) (*Manager, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ssd == nil && (cfg.SSDResultBytes > 0 || cfg.SSDListBytes > 0) {
		return nil, fmt.Errorf("core: SSD regions configured but no SSD device")
	}
	if ssd != nil && cfg.SSDResultBytes+cfg.SSDListBytes > ssd.Size() {
		return nil, fmt.Errorf("core: SSD regions %d+%d exceed device size %d",
			cfg.SSDResultBytes, cfg.SSDListBytes, ssd.Size())
	}
	m := &Manager{
		cfg:          cfg,
		clock:        clock,
		ix:           ix,
		ssd:          ssd,
		nsPerByteMem: float64(time.Second) / float64(cfg.MemBytesPerSecond),
		rc:           cache.NewList(cfg.MemResultBytes),
		ic:           cache.NewList(cfg.MemListBytes),
		entriesPerRB: int(cfg.BlockBytes / cfg.ResultEntryBytes),
		resultLoc:    make(map[uint64]*ssdResult),
		icStatic:     make(map[workload.TermID]*ssdList),
		termFreq:     make(map[workload.TermID]int64),
		queryFreq:    make(map[uint64]int64),
		puMeasured:   make(map[workload.TermID]float64),
	}
	if m.entriesPerRB < 1 {
		return nil, fmt.Errorf("core: result entry %d larger than block %d",
			cfg.ResultEntryBytes, cfg.BlockBytes)
	}
	if cfg.SSDResultBytes > 0 {
		m.rbLRU = cache.NewList(cfg.SSDResultBytes)
		m.rcAlloc = storage.NewAllocator(cfg.SSDResultBytes)
	}
	if cfg.SSDListBytes > 0 {
		m.icLRU = cache.NewList(cfg.SSDListBytes)
		m.icAlloc = storage.NewAllocator(cfg.SSDListBytes)
	}
	info, ok := lookupPolicy(cfg.Policy)
	if !ok {
		// Unreachable after Validate; kept as a guard for future registry edits.
		return nil, fmt.Errorf("core: policy %d not registered", cfg.Policy)
	}
	m.repl, m.adm = info.New(m)
	return m, nil
}

// Policy returns the manager's replacement policy.
func (m *Manager) Policy() Policy { return m.cfg.Policy }

// UsesStaticPartition reports whether the active policy reserves static
// SSD partitions populated by query-log analysis (CBSLRU). Callers use it
// to decide whether a WarmupStatic pass is meaningful.
func (m *Manager) UsesStaticPartition() bool { return m.repl.UsesStaticPartition() }

// Config returns the effective configuration.
func (m *Manager) Config() Config { return m.cfg }

// memCost charges L1 access time for an n-byte transfer.
func (m *Manager) memCost(n int) {
	m.clock.AdvanceAttr(m.cfg.MemAccessLatency+time.Duration(float64(n)*m.nsPerByteMem),
		simclock.CompCacheBookkeeping)
}

// pu returns the utilization rate for term t. Measured samples (the online
// form of the paper's query-log analysis) take precedence; the configured
// model acts as the prior for terms never yet executed; 1 (cache the whole
// used prefix) is the fallback.
func (m *Manager) pu(t workload.TermID) float64 {
	if v, ok := m.puMeasured[t]; ok {
		return v
	}
	if m.cfg.PU != nil {
		return m.cfg.PU(t)
	}
	return 1
}

// RecordUtilization feeds a measured per-term utilization sample (from
// engine.ExecStats) into the running PU estimate. The paper obtains PU "by
// analyzing the query log"; feeding execution stats is the online variant.
func (m *Manager) RecordUtilization(t workload.TermID, utilization float64) {
	if utilization <= 0 {
		return
	}
	if utilization > 1 {
		utilization = 1
	}
	if old, ok := m.puMeasured[t]; ok {
		m.puMeasured[t] = 0.8*old + 0.2*utilization
	} else {
		m.puMeasured[t] = utilization
	}
}

// scBlocks implements Formula 1: the number of whole SSD blocks to cache
// for a list whose used size in memory is si bytes.
func (m *Manager) scBlocks(si int64, pu float64) int64 {
	if si <= 0 {
		return 0
	}
	sc := (int64(float64(si)*pu) + m.cfg.BlockBytes - 1) / m.cfg.BlockBytes
	if sc < 1 {
		sc = 1
	}
	return sc
}

// ev implements Formula 2: the efficiency value of a list with the given
// access frequency and cached size in blocks.
func ev(freq, scBlocks int64) float64 {
	if scBlocks <= 0 {
		return 0
	}
	return float64(freq) / float64(scBlocks)
}

// ssdRead performs a foreground SSD read: the caller waits for any queued
// background work, then for the read itself. The wait plus service time is
// charged on the shared clock.
func (m *Manager) ssdRead(p []byte, off int64) error {
	lat, err := m.ssd.ReadAt(p, off)
	if err != nil {
		m.noteSSDError(storage.OpRead, int64(len(p)))
		return err
	}
	m.ssdFailStreak = 0
	// Waiting for queued background program/erase work is an erase stall;
	// the read's own service time is flash read cost. Splitting the two
	// advances keeps the attribution honest while landing at the same
	// completion instant as a single AdvanceTo.
	m.clock.AdvanceToAttr(m.ssdBusyUntil, simclock.CompSSDEraseStall)
	finish := m.clock.AdvanceAttr(lat, simclock.CompSSDRead)
	m.ssdBusyUntil = finish
	return nil
}

// ssdWrite performs a background SSD write: it costs no foreground time
// but extends the device's busy horizon by its service time (including any
// garbage collection it triggered).
func (m *Manager) ssdWrite(p []byte, off int64) error {
	lat, err := m.ssd.WriteAt(p, off)
	if err != nil {
		m.noteSSDError(storage.OpWrite, int64(len(p)))
		return err
	}
	m.ssdFailStreak = 0
	m.pushBusy(lat)
	return nil
}

// ssdTrim issues a background trim when the device supports it.
func (m *Manager) ssdTrim(off, n int64) {
	t, ok := m.ssd.(storage.Trimmer)
	if !ok {
		return
	}
	lat, err := t.Trim(off, n)
	if err != nil {
		m.noteSSDError(storage.OpTrim, n)
		return
	}
	m.ssdFailStreak = 0
	m.pushBusy(lat)
}

// noteSSDError accounts one failed SSD operation (an EvIOError event) and
// the circuit-breaker streak. BreakerThreshold consecutive failures open
// the breaker for BreakerCooldown simulated time.
func (m *Manager) noteSSDError(kind storage.OpKind, n int64) {
	m.record(Event{Kind: EvIOError, Level: LevelSSD, Op: kind, Bytes: n})
	if m.cfg.BreakerThreshold <= 0 {
		return
	}
	m.ssdFailStreak++
	if m.ssdFailStreak >= m.cfg.BreakerThreshold {
		m.ssdFailStreak = 0
		m.breakerOpenUntil = m.clock.Now() + m.cfg.BreakerCooldown
		m.record(Event{Kind: EvBreakerTrip})
	}
}

// ssdHealthy reports whether the L2 tier should be used right now: there is
// a device and the circuit breaker is closed.
func (m *Manager) ssdHealthy() bool {
	return m.ssd != nil && m.clock.Now() >= m.breakerOpenUntil
}

// DegradedMode reports whether the circuit breaker is currently open
// (reads and flushes are routed around the SSD tier).
func (m *Manager) DegradedMode() bool {
	return m.ssd != nil && m.clock.Now() < m.breakerOpenUntil
}

// noteDegraded accounts one request served around the open breaker.
func (m *Manager) noteDegraded() {
	m.record(Event{Kind: EvDegraded, Level: LevelSSD})
}

// quarantine retires an allocator extent whose device range failed and
// accounts the lost capacity.
func (m *Manager) quarantine(a *storage.Allocator, off, n int64) {
	a.Quarantine(off, n)
	m.record(Event{Kind: EvQuarantine, Bytes: n})
}

func (m *Manager) pushBusy(lat time.Duration) {
	start := m.clock.Now()
	if m.ssdBusyUntil > start {
		start = m.ssdBusyUntil
	}
	m.ssdBusyUntil = start + lat
}

// resultExpired reports whether a result entry loaded at the given
// simulated time has outlived Config.ResultTTL (dynamic scenario, §IV-B).
func (m *Manager) resultExpired(loadedAt time.Duration) bool {
	return m.cfg.ResultTTL > 0 && m.clock.Now()-loadedAt > m.cfg.ResultTTL
}

// listExpired is the inverted-list counterpart of resultExpired.
func (m *Manager) listExpired(loadedAt time.Duration) bool {
	return m.cfg.ListTTL > 0 && m.clock.Now()-loadedAt > m.cfg.ListTTL
}

// NumDocs implements engine.ListSource.
func (m *Manager) NumDocs() int64 { return m.ix.NumDocs() }

// ListBytes implements engine.ListSource.
func (m *Manager) ListBytes(t workload.TermID) int64 { return m.ix.ListBytes(t) }

// TermDF implements engine.ListSource.
func (m *Manager) TermDF(t workload.TermID) int64 { return m.ix.TermDF(t) }

// Codec implements engine.ListSource.
func (m *Manager) Codec() index.CodecID { return m.ix.Codec() }

// ListBlocks implements engine.ListSource. Block directories are in-memory
// metadata: reading them costs no device time and goes straight to the
// index.
func (m *Manager) ListBlocks(t workload.TermID) []index.BlockRef { return m.ix.ListBlocks(t) }
