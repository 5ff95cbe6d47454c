package core

// Pluggable replacement and admission policies.
//
// The Manager's serving paths are policy-independent plumbing (read
// through the hierarchy, account every byte, keep the allocator honest);
// everything that distinguishes LRU from the paper's cost-based schemes —
// caching unit, victim choice, the replaceable-state dance of Fig 9, L2
// admission — is behind the ReplacementPolicy/AdmissionPolicy pair. The
// three policies of the paper (LRU, CBLRU, CBSLRU) are the first three
// registered implementations; the zoo (TinyLFU admission, ARC, 2Q, the
// bidirectional cache filter) builds on the same hooks without touching
// the serving paths.
//
// Every implementation must preserve the Manager's contracts: the
// invariant checker (invariants.go), stats≡trace (every Stats change is an
// event folded by Manager.record, events.go), deterministic behavior
// under a fixed seed (byte-identical experiment output at any -jobs), and
// exact accounting under injected device faults.

import (
	"fmt"
	"sort"
	"strings"

	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// ReplacementPolicy captures the policy-dependent decision points of the
// cache hierarchy's replacement path. Implementations may keep per-manager
// state (ghost lists, adaptation targets); they are created per Manager by
// the registry factory and are not safe for concurrent use, matching the
// Manager itself.
type ReplacementPolicy interface {
	// WholeListL1 reports whether L1 caches entire inverted lists (the
	// LRU baseline's classic list caching) or Formula-1 used prefixes.
	WholeListL1() bool
	// BlockAlignedL2 reports whether the L2 cache uses the paper's
	// block-aligned machinery (result blocks, write buffer, extent
	// ladder) or the baseline's entry-granularity writes.
	BlockAlignedL2() bool
	// FlipReplaceableOnHit reports whether an SSD hit that copies data
	// back to memory flips the SSD entry to replaceable (Fig 9).
	FlipReplaceableOnHit() bool
	// UsesStaticPartition reports whether part of each SSD region is a
	// static partition populated by query-log analysis (CBSLRU, §VI-C2).
	UsesStaticPartition() bool
	// ChooseL1ListVictim picks the next L1 inverted-list eviction victim,
	// never returning exclude. Nil means nothing evictable.
	ChooseL1ListVictim(exclude *cache.Entry) *cache.Entry
	// PromoteResultToL1 reports whether a result served from the SSD is
	// copied up into the L1 result cache (the hybrid scheme's promotion;
	// the bidirectional filter gates it on repeat hits).
	PromoteResultToL1(qid uint64) bool
	// AdmitNewL1List reports whether a list with no L1 entry yet may be
	// inserted into L1 (extensions of an existing prefix are always
	// allowed). The bidirectional filter gates first-touch inserts.
	AdmitNewL1List(t workload.TermID) bool
	// NoteL1ListInsert/Hit/Evict inform the policy of L1 list-cache
	// lifecycle so segmented schemes (ARC, 2Q) can keep their ghost
	// bookkeeping. No-ops for the paper's policies.
	NoteL1ListInsert(t workload.TermID)
	NoteL1ListHit(t workload.TermID)
	NoteL1ListEvict(t workload.TermID)
}

// AdmissionPolicy decides what enters the L2 (SSD) cache. The paper's
// cost-based policies admit by efficiency value (Formula 2 vs TEV);
// TinyLFU-style policies additionally require sketch frequency, keeping
// one-hit wonders off the flash entirely.
type AdmissionPolicy interface {
	// AdmitList decides whether an L1-evicted list prefix (Formula-1 size
	// sc blocks) is flushed into the L2 list region. Returning false
	// discards the list (it stays readable from the backing store).
	AdmitList(t workload.TermID, sc int64) bool
	// AdmitResult decides whether an L1-evicted result entry enters the
	// write buffer for RB assembly.
	AdmitResult(qid uint64) bool
}

// PolicyInfo describes one registered policy.
type PolicyInfo struct {
	// ID is the Policy constant.
	ID Policy
	// Name is the lowercase parse name (CLI flags, config files).
	Name string
	// Display is the report name (the paper's capitalization).
	Display string
	// Summary is a one-line description for docs and -help output.
	Summary string
	// RequiresTwoLevel marks policies meaningless without an SSD level
	// (hybrid.Config validation rejects them in other cache modes).
	RequiresTwoLevel bool
	// New builds the policy pair for a manager. Called once per Manager
	// from core.New, after the configuration has been validated.
	New func(m *Manager) (ReplacementPolicy, AdmissionPolicy)
}

// policyRegistry holds every known policy, in Policy-constant order. A
// fixed slice (not init-time side effects) keeps registration order — and
// therefore RegisteredPolicyNames and every error message derived from it
// — deterministic.
var policyRegistry = []PolicyInfo{
	{
		ID: PolicyLRU, Name: "lru", Display: "LRU",
		Summary: "recency-only baseline: whole-list caching, entry-granularity SSD writes",
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return &lruReplacement{m: m}, admitAll{}
		},
	},
	{
		ID: PolicyCBLRU, Name: "cblru", Display: "CBLRU",
		Summary: "cost-based LRU: EV selection, prefix caching, block-aligned log writes (paper §VI)",
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return &cbReplacement{m: m}, &tevAdmission{m: m}
		},
	},
	{
		ID: PolicyCBSLRU, Name: "cbslru", Display: "CBSLRU",
		Summary:          "CBLRU plus a static partition pinned by query-log analysis (paper §VI-C2)",
		RequiresTwoLevel: true,
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return &cbReplacement{m: m, static: true}, &tevAdmission{m: m}
		},
	},
	{
		ID: PolicyTinyLFU, Name: "tinylfu", Display: "TinyLFU",
		Summary: "CBLRU replacement with frequency-gated L2 admission from the decaying sketches",
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return &cbReplacement{m: m}, &freqGatedAdmission{m: m}
		},
	},
	{
		ID: PolicyARC, Name: "arc", Display: "ARC",
		Summary: "adaptive replacement cache at L1 (T1/T2 + ghost B1/B2), cost-based L2",
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return newARCReplacement(m), &tevAdmission{m: m}
		},
	},
	{
		ID: Policy2Q, Name: "2q", Display: "2Q",
		Summary: "2Q at L1 (A1in/A1out/Am), cost-based L2",
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return new2QReplacement(m), &tevAdmission{m: m}
		},
	},
	{
		ID: PolicyBidi, Name: "bidi", Display: "BiDi",
		Summary:          "bidirectional cache filter: promote/demote between levels gated on repeat hits",
		RequiresTwoLevel: true,
		New: func(m *Manager) (ReplacementPolicy, AdmissionPolicy) {
			return &bidiReplacement{cbReplacement{m: m}}, &freqGatedAdmission{m: m}
		},
	},
}

// lookupPolicy returns the registry entry for p.
func lookupPolicy(p Policy) (PolicyInfo, bool) {
	for _, info := range policyRegistry {
		if info.ID == p {
			return info, true
		}
	}
	return PolicyInfo{}, false
}

// Policies returns every registered policy, in registration order.
func Policies() []PolicyInfo {
	out := make([]PolicyInfo, len(policyRegistry))
	copy(out, policyRegistry)
	return out
}

// RegisteredPolicyNames returns the parse names of every registered
// policy, in registration order.
func RegisteredPolicyNames() []string {
	names := make([]string, len(policyRegistry))
	for i, info := range policyRegistry {
		names[i] = info.Name
	}
	return names
}

// ParsePolicy maps a policy name (case-insensitive parse name or display
// name) to its Policy constant. The error lists every registered name, so
// it can never go stale as policies are added.
func ParsePolicy(s string) (Policy, error) {
	for _, info := range policyRegistry {
		if strings.EqualFold(s, info.Name) || strings.EqualFold(s, info.Display) {
			return info.ID, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want %s)", s, strings.Join(RegisteredPolicyNames(), ", "))
}

// Valid reports whether p is a registered policy. Config validation
// rejects invalid values up front, so the Policy(%d) String fallback is
// unreachable from user input.
func (p Policy) Valid() bool {
	_, ok := lookupPolicy(p)
	return ok
}

// RequiresTwoLevel reports whether p is only meaningful with an SSD cache
// level (hybrid.Config validation enforces the pairing).
func (p Policy) RequiresTwoLevel() bool {
	info, ok := lookupPolicy(p)
	return ok && info.RequiresTwoLevel
}

// ---------------------------------------------------------------------------
// The paper's policies: LRU baseline and the cost-based family.

// lruReplacement is the baseline of §VII: strict recency at both levels,
// whole-list caching, entry-granularity SSD writes, no selection logic.
type lruReplacement struct{ m *Manager }

func (r *lruReplacement) WholeListL1() bool          { return true }
func (r *lruReplacement) BlockAlignedL2() bool       { return false }
func (r *lruReplacement) FlipReplaceableOnHit() bool { return false }
func (r *lruReplacement) UsesStaticPartition() bool  { return false }

// ChooseL1ListVictim picks the least-recently-used entry, skipping exclude.
func (r *lruReplacement) ChooseL1ListVictim(exclude *cache.Entry) *cache.Entry {
	var v *cache.Entry
	r.m.ic.Ascend(func(e *cache.Entry) bool {
		if e != exclude {
			v = e
			return false
		}
		return true
	})
	return v
}

func (r *lruReplacement) PromoteResultToL1(uint64) bool       { return true }
func (r *lruReplacement) AdmitNewL1List(workload.TermID) bool { return true }
func (r *lruReplacement) NoteL1ListInsert(workload.TermID)    {}
func (r *lruReplacement) NoteL1ListHit(workload.TermID)       {}
func (r *lruReplacement) NoteL1ListEvict(workload.TermID)     {}

// cbReplacement is the paper's cost-based replacement (CBLRU; with static
// true, CBSLRU): prefix caching sized by Formula 1, minimum-EV victim
// choice inside the replace-first window (Fig 12), block-aligned log
// writes and the replaceable-state hybrid scheme (Fig 9). It is also the
// base the zoo policies embed for the paper's L2 machinery.
type cbReplacement struct {
	m      *Manager
	static bool
}

func (r *cbReplacement) WholeListL1() bool          { return false }
func (r *cbReplacement) BlockAlignedL2() bool       { return true }
func (r *cbReplacement) FlipReplaceableOnHit() bool { return true }
func (r *cbReplacement) UsesStaticPartition() bool  { return r.static }

// ChooseL1ListVictim picks the minimum-EV entry within the replace-first
// window (Fig 12), skipping exclude.
func (r *cbReplacement) ChooseL1ListVictim(exclude *cache.Entry) *cache.Entry {
	m := r.m
	window := m.cfg.WindowW
	if window < 8 {
		window = 8
	}
	var best *cache.Entry
	bestEV := 0.0
	for _, e := range m.ic.TailWindow(window + 1) { // +1 headroom for exclude
		if e == exclude {
			continue
		}
		ml := e.Value.(*memList)
		v := ev(m.termFreq[ml.term], m.scBlocks(int64(len(ml.prefix)), m.pu(ml.term)))
		if best == nil || v < bestEV {
			best, bestEV = e, v
		}
	}
	return best
}

func (r *cbReplacement) PromoteResultToL1(uint64) bool       { return true }
func (r *cbReplacement) AdmitNewL1List(workload.TermID) bool { return true }
func (r *cbReplacement) NoteL1ListInsert(workload.TermID)    {}
func (r *cbReplacement) NoteL1ListHit(workload.TermID)       {}
func (r *cbReplacement) NoteL1ListEvict(workload.TermID)     {}

// admitAll is the baseline admission: everything evicted from L1 goes to
// the SSD (no selection — the write storm the paper's selection avoids).
type admitAll struct{}

func (admitAll) AdmitList(workload.TermID, int64) bool { return true }
func (admitAll) AdmitResult(uint64) bool               { return true }

// tevAdmission is the paper's selection (§VI-A): an evicted list is
// admitted when its efficiency value EV = Freq/SC (Formula 2) reaches the
// TEV threshold; results are always admitted (the paper buffers every
// evicted result entry for RB assembly).
type tevAdmission struct{ m *Manager }

func (a *tevAdmission) AdmitList(t workload.TermID, sc int64) bool {
	return !(ev(a.m.termFreq[t], sc) < a.m.cfg.TEV)
}

func (a *tevAdmission) AdmitResult(uint64) bool { return true }

// sortedPolicyIDs is a test helper: every registered Policy value,
// ascending.
func sortedPolicyIDs() []Policy {
	ids := make([]Policy, 0, len(policyRegistry))
	for _, info := range policyRegistry {
		ids = append(ids, info.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
