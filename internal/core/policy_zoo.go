package core

// The cache-policy zoo: post-paper policies implemented on the same
// ReplacementPolicy/AdmissionPolicy hooks as the paper's three.
//
//   - TinyLFU: cost-based replacement plus a frequency "doorkeeper" on L2
//     admission — one-hit wonders never reach the flash (Einziger &
//     Friedman's TinyLFU, seeded from the manager's existing decaying
//     termFreq/queryFreq sketches instead of a separate sketch).
//   - ARC: adaptive replacement cache at L1 (T1/T2 segments plus ghost
//     lists B1/B2 steering a byte target), keeping the paper's cost-based
//     L2 machinery below.
//   - 2Q: the A1in/A1out/Am scheme at L1, cost-based L2 below.
//   - BiDi: a bidirectional cache filter between the levels — promotion
//     from SSD to memory and demotion from memory to SSD both gated on
//     repeat hits, so singletons neither pollute L1 nor burn program
//     cycles on L2 (after the multilevel bidirectional filter of Eytan &
//     Friedman; see PAPERS.md).
//
// All zoo policies keep the Manager's contracts: deterministic victim
// choice (linked-list order plus point map lookups only — no map
// iteration), exact accounting under injected faults, and stats≡trace:
// a policy that counts a decision records an event (Manager.record), never
// a bare Stats bump.

import (
	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// ghostCap bounds each ghost list. Ghosts are recency metadata, not data;
// a small bound keeps memory stable under unbounded distinct terms while
// retaining enough history to steer adaptation.
const ghostCap = 256

// ghostList is a bounded FIFO of recently evicted term IDs with O(1)
// membership. Eviction order is insertion order (oldest forgotten first).
type ghostList struct {
	order []workload.TermID
	set   map[workload.TermID]struct{}
}

func newGhostList() *ghostList {
	return &ghostList{set: make(map[workload.TermID]struct{})}
}

func (g *ghostList) has(t workload.TermID) bool {
	_, ok := g.set[t]
	return ok
}

// push records t as most recently evicted, dropping the oldest entry when
// full. A re-pushed member is moved to the back.
func (g *ghostList) push(t workload.TermID) {
	if g.has(t) {
		g.remove(t)
	}
	for len(g.order) >= ghostCap {
		old := g.order[0]
		g.order = g.order[1:]
		delete(g.set, old)
	}
	g.order = append(g.order, t)
	g.set[t] = struct{}{}
}

// remove forgets t (after a ghost hit promoted it).
func (g *ghostList) remove(t workload.TermID) {
	if !g.has(t) {
		return
	}
	delete(g.set, t)
	for i, v := range g.order {
		if v == t {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
}

// L1 segment tags for the segmented policies.
const (
	segProbation uint8 = 1 // ARC T1 / 2Q A1in: seen once since insertion
	segProtected uint8 = 2 // ARC T2 / 2Q Am: re-referenced
)

// ---------------------------------------------------------------------------
// ARC

// arcReplacement runs ARC over the L1 list cache: resident entries are
// tagged T1 (seen once) or T2 (re-referenced); ghosts B1/B2 remember
// recent evictions from each segment, and a hit in either ghost moves the
// byte target p toward the segment that would have kept the entry. The L2
// side is the paper's cost-based machinery unchanged (cbReplacement).
type arcReplacement struct {
	cbReplacement
	seg    map[workload.TermID]uint8
	b1, b2 *ghostList
	// p is the adaptive byte target for T1 (classic ARC's p, in bytes
	// since entries are variable-length). Starts at 0: favor T2 until B1
	// hits argue for more recency room.
	p int64
}

func newARCReplacement(m *Manager) *arcReplacement {
	return &arcReplacement{
		cbReplacement: cbReplacement{m: m},
		seg:           make(map[workload.TermID]uint8),
		b1:            newGhostList(),
		b2:            newGhostList(),
	}
}

// step is the adaptation increment: 1/16 of L1 list capacity per ghost
// hit. Classic ARC adapts by one page; byte-valued caches need a coarser
// quantum to move the target in useful time.
func (r *arcReplacement) step() int64 {
	s := r.m.ic.Capacity() / 16
	if s < 1 {
		s = 1
	}
	return s
}

func (r *arcReplacement) NoteL1ListInsert(t workload.TermID) {
	switch {
	case r.b1.has(t):
		// B1 hit: recency was right — grow T1's target.
		r.p += r.step()
		if max := r.m.ic.Capacity(); r.p > max {
			r.p = max
		}
		r.b1.remove(t)
		r.seg[t] = segProtected
	case r.b2.has(t):
		// B2 hit: frequency was right — shrink T1's target.
		r.p -= r.step()
		if r.p < 0 {
			r.p = 0
		}
		r.b2.remove(t)
		r.seg[t] = segProtected
	default:
		r.seg[t] = segProbation
	}
}

func (r *arcReplacement) NoteL1ListHit(t workload.TermID) {
	r.seg[t] = segProtected
}

func (r *arcReplacement) NoteL1ListEvict(t workload.TermID) {
	if r.seg[t] == segProtected {
		r.b2.push(t)
	} else {
		r.b1.push(t)
	}
	delete(r.seg, t)
}

// ChooseL1ListVictim evicts from T1 when it exceeds its byte target p,
// else from T2 — each segment strictly by recency (LRU-most first),
// falling back to the other segment when the preferred one is empty.
func (r *arcReplacement) ChooseL1ListVictim(exclude *cache.Entry) *cache.Entry {
	var t1Bytes int64
	r.m.ic.Ascend(func(e *cache.Entry) bool {
		if r.segOf(e) == segProbation {
			t1Bytes += e.Size
		}
		return true
	})
	want := segProtected
	if t1Bytes > r.p {
		want = segProbation
	}
	var fallback, victim *cache.Entry
	r.m.ic.Ascend(func(e *cache.Entry) bool {
		if e == exclude {
			return true
		}
		if fallback == nil {
			fallback = e
		}
		if r.segOf(e) == want {
			victim = e
			return false
		}
		return true
	})
	if victim != nil {
		return victim
	}
	return fallback
}

// segOf returns the entry's segment tag, defaulting untagged entries to
// probation (they have demonstrably not been re-referenced).
func (r *arcReplacement) segOf(e *cache.Entry) uint8 {
	ml := e.Value.(*memList)
	if s, ok := r.seg[ml.term]; ok {
		return s
	}
	return segProbation
}

// ---------------------------------------------------------------------------
// 2Q

// twoQReplacement runs simplified 2Q over the L1 list cache: new entries
// enter the probationary A1in queue; entries evicted from A1in are
// remembered in the A1out ghost, and a re-insert that hits A1out goes
// straight to the protected Am queue. A1in is budgeted at 1/4 of L1 (the
// classic Kin); when over budget the victim comes from A1in, otherwise
// from Am. Cost-based L2 below, unchanged.
type twoQReplacement struct {
	cbReplacement
	seg   map[workload.TermID]uint8
	a1out *ghostList
}

func new2QReplacement(m *Manager) *twoQReplacement {
	return &twoQReplacement{
		cbReplacement: cbReplacement{m: m},
		seg:           make(map[workload.TermID]uint8),
		a1out:         newGhostList(),
	}
}

func (r *twoQReplacement) NoteL1ListInsert(t workload.TermID) {
	if r.a1out.has(t) {
		r.a1out.remove(t)
		r.seg[t] = segProtected
		return
	}
	r.seg[t] = segProbation
}

// NoteL1ListHit is deliberately a no-op: in 2Q a hit inside A1in does not
// promote (that is the point — promotion requires surviving A1out), and
// Am membership is already protected.
func (r *twoQReplacement) NoteL1ListHit(workload.TermID) {}

func (r *twoQReplacement) NoteL1ListEvict(t workload.TermID) {
	if r.seg[t] != segProtected {
		r.a1out.push(t)
	}
	delete(r.seg, t)
}

// ChooseL1ListVictim evicts the LRU-most A1in entry while A1in exceeds its
// Kin budget, else the LRU-most Am entry, with cross-segment fallback.
func (r *twoQReplacement) ChooseL1ListVictim(exclude *cache.Entry) *cache.Entry {
	var a1inBytes int64
	r.m.ic.Ascend(func(e *cache.Entry) bool {
		if r.segOf(e) == segProbation {
			a1inBytes += e.Size
		}
		return true
	})
	want := segProtected
	if a1inBytes > r.m.ic.Capacity()/4 {
		want = segProbation
	}
	var fallback, victim *cache.Entry
	r.m.ic.Ascend(func(e *cache.Entry) bool {
		if e == exclude {
			return true
		}
		if fallback == nil {
			fallback = e
		}
		if r.segOf(e) == want {
			victim = e
			return false
		}
		return true
	})
	if victim != nil {
		return victim
	}
	return fallback
}

func (r *twoQReplacement) segOf(e *cache.Entry) uint8 {
	ml := e.Value.(*memList)
	if s, ok := r.seg[ml.term]; ok {
		return s
	}
	return segProbation
}

// ---------------------------------------------------------------------------
// BiDi: the bidirectional cache filter.

// bidiReplacement gates the upward (SSD→memory) flow: an SSD result hit is
// served without L1 promotion until the query has shown repeat demand, and
// a list with no L1 entry yet is only admitted once its term has. The
// downward (memory→SSD) flow is gated by the paired freqGatedAdmission.
// Everything else is the paper's cost-based scheme.
type bidiReplacement struct {
	cbReplacement
}

// PromoteResultToL1 promotes on the query's second SSD hit: queryFreq is
// bumped at the top of every GetResult, so a query being looked up for the
// third time (freq ≥ 3) has hit the SSD copy at least once before.
func (r *bidiReplacement) PromoteResultToL1(qid uint64) bool {
	return r.m.queryFreq[qid] >= 3
}

// AdmitNewL1List admits first-touch L1 inserts only for terms seen at
// least twice; prefix extensions of already-resident lists are always
// allowed (fillL1List never consults this for them).
func (r *bidiReplacement) AdmitNewL1List(t workload.TermID) bool {
	return r.m.termFreq[t] >= 2
}

// freqGatedAdmission is the doorkeeper both TinyLFU and BiDi use on the
// downward path: an item may enter the SSD only once its decayed sketch
// frequency reaches the minimum (2 — i.e. one-hit wonders are rejected).
// Lists additionally pass the paper's TEV check, so the gate tightens
// selection rather than replacing it.
type freqGatedAdmission struct {
	m *Manager
}

func (a *freqGatedAdmission) AdmitList(t workload.TermID, sc int64) bool {
	if a.m.termFreq[t] < 2 {
		a.m.record(Event{Kind: EvListReject, Term: t})
		return false
	}
	return !(ev(a.m.termFreq[t], sc) < a.m.cfg.TEV)
}

func (a *freqGatedAdmission) AdmitResult(qid uint64) bool {
	return a.m.queryFreq[qid] >= 2
}
