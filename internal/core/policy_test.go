package core

import (
	"strings"
	"testing"

	"hybridstore/internal/workload"
)

// allPolicies returns every registered policy ID, registry order, so the
// behavioral test matrices cover new policies automatically.
func allPolicies() []Policy {
	ps := make([]Policy, 0, len(policyRegistry))
	for _, info := range policyRegistry {
		ps = append(ps, info.ID)
	}
	return ps
}

func TestParsePolicyRoundTrips(t *testing.T) {
	for _, info := range Policies() {
		for _, s := range []string{info.Name, info.Display, strings.ToUpper(info.Name)} {
			got, err := ParsePolicy(s)
			if err != nil {
				t.Fatalf("ParsePolicy(%q): %v", s, err)
			}
			if got != info.ID {
				t.Fatalf("ParsePolicy(%q) = %v, want %v", s, got, info.ID)
			}
		}
	}
}

func TestParsePolicyUnknownListsAllNames(t *testing.T) {
	_, err := ParsePolicy("clockpro")
	if err == nil {
		t.Fatal("accepted unknown policy")
	}
	for _, name := range RegisteredPolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not mention registered policy %q", err, name)
		}
	}
}

func TestPolicyStringNeverFallsBack(t *testing.T) {
	// Every policy reachable from user input (i.e. every registered one)
	// must render a real name, not the Policy(%d) debug fallback.
	for _, p := range allPolicies() {
		if strings.HasPrefix(p.String(), "Policy(") {
			t.Fatalf("registered policy %d renders as %q", p, p.String())
		}
		if !p.Valid() {
			t.Fatalf("registered policy %v not Valid()", p)
		}
	}
	if Policy(99).String() != "Policy(99)" {
		t.Fatalf("unregistered policy renders %q", Policy(99).String())
	}
	if Policy(99).Valid() {
		t.Fatal("unregistered policy reports Valid()")
	}
}

func TestPolicyTraits(t *testing.T) {
	// The legacy trio's traits are load-bearing: they encode the exact
	// pre-refactor behavior the byte-identity acceptance check pins.
	cases := []struct {
		policy                              Policy
		wholeL1, blockL2, flipHit, static   bool
		requiresTwoLevel, rejectsSingletons bool
	}{
		{PolicyLRU, true, false, false, false, false, false},
		{PolicyCBLRU, false, true, true, false, false, false},
		{PolicyCBSLRU, false, true, true, true, true, false},
		{PolicyTinyLFU, false, true, true, false, false, true},
		{PolicyARC, false, true, true, false, false, false},
		{Policy2Q, false, true, true, false, false, false},
		{PolicyBidi, false, true, true, false, true, true},
	}
	for _, c := range cases {
		t.Run(c.policy.String(), func(t *testing.T) {
			cfg := testConfig(c.policy)
			f := newFixture(t, cfg)
			r := f.m.repl
			if r.WholeListL1() != c.wholeL1 {
				t.Errorf("WholeListL1 = %v", r.WholeListL1())
			}
			if r.BlockAlignedL2() != c.blockL2 {
				t.Errorf("BlockAlignedL2 = %v", r.BlockAlignedL2())
			}
			if r.FlipReplaceableOnHit() != c.flipHit {
				t.Errorf("FlipReplaceableOnHit = %v", r.FlipReplaceableOnHit())
			}
			if r.UsesStaticPartition() != c.static {
				t.Errorf("UsesStaticPartition = %v", r.UsesStaticPartition())
			}
			if f.m.UsesStaticPartition() != c.static {
				t.Errorf("Manager.UsesStaticPartition = %v", f.m.UsesStaticPartition())
			}
			if c.policy.RequiresTwoLevel() != c.requiresTwoLevel {
				t.Errorf("RequiresTwoLevel = %v", c.policy.RequiresTwoLevel())
			}
			// A term never seen before: frequency-gated admission rejects it,
			// the TEV-style admissions accept it (TEV=0 in testConfig).
			if got := f.m.adm.AdmitList(workload.TermID(150), 1); got == c.rejectsSingletons {
				t.Errorf("AdmitList(cold term) = %v", got)
			}
		})
	}
}

func TestFreqGatedAdmissionWarmsUp(t *testing.T) {
	f := newFixture(t, testConfig(PolicyTinyLFU))
	term := workload.TermID(42)
	if f.m.adm.AdmitList(term, 1) {
		t.Fatal("admitted a never-seen term")
	}
	if got := f.m.Stats().ListsRejectedByAdmission; got != 1 {
		t.Fatalf("ListsRejectedByAdmission = %d after one reject, want 1", got)
	}
	f.m.termFreq[term] = 2
	if !f.m.adm.AdmitList(term, 1) {
		t.Fatal("rejected a term at the frequency threshold")
	}
	if f.m.adm.AdmitResult(7) {
		t.Fatal("admitted a never-seen query result")
	}
	f.m.queryFreq[7] = 2
	if !f.m.adm.AdmitResult(7) {
		t.Fatal("rejected a query at the frequency threshold")
	}
}

func TestBidiPromotionThresholds(t *testing.T) {
	f := newFixture(t, testConfig(PolicyBidi))
	r := f.m.repl
	if r.PromoteResultToL1(5) {
		t.Fatal("promoted a cold query's result")
	}
	f.m.queryFreq[5] = 3
	if !r.PromoteResultToL1(5) {
		t.Fatal("did not promote a hot query's result")
	}
	if r.AdmitNewL1List(9) {
		t.Fatal("admitted a cold term's list into L1")
	}
	f.m.termFreq[9] = 2
	if !r.AdmitNewL1List(9) {
		t.Fatal("rejected a warm term's list from L1")
	}
}

func TestARCGhostsSteerVictims(t *testing.T) {
	f := newFixture(t, testConfig(PolicyARC))
	arc, ok := f.m.repl.(*arcReplacement)
	if !ok {
		t.Fatalf("ARC manager runs %T", f.m.repl)
	}
	// A b1 ghost hit grows the recency target and re-inserts as protected.
	arc.b1.push(workload.TermID(3))
	arc.NoteL1ListInsert(workload.TermID(3))
	if arc.p == 0 {
		t.Fatal("b1 ghost hit did not grow the recency target")
	}
	if arc.seg[workload.TermID(3)] != segProtected {
		t.Fatal("b1 ghost hit not re-inserted as protected")
	}
	if arc.b1.has(workload.TermID(3)) {
		t.Fatal("ghost entry survived its hit")
	}
	// A b2 ghost hit shrinks the target back.
	p := arc.p
	arc.b2.push(workload.TermID(4))
	arc.NoteL1ListInsert(workload.TermID(4))
	if arc.p >= p {
		t.Fatal("b2 ghost hit did not shrink the recency target")
	}
	// Evictions land in the ghost list matching their segment.
	arc.NoteL1ListEvict(workload.TermID(3))
	if !arc.b2.has(workload.TermID(3)) {
		t.Fatal("protected eviction missing from b2")
	}
	arc.NoteL1ListInsert(workload.TermID(5)) // cold insert: probation
	arc.NoteL1ListEvict(workload.TermID(5))
	if !arc.b1.has(workload.TermID(5)) {
		t.Fatal("probation eviction missing from b1")
	}
}

func TestGhostListBounded(t *testing.T) {
	g := newGhostList()
	for i := 0; i < 3*ghostCap; i++ {
		g.push(workload.TermID(i))
	}
	if len(g.order) != ghostCap || len(g.set) != ghostCap {
		t.Fatalf("ghost list grew to %d/%d entries (cap %d)", len(g.order), len(g.set), ghostCap)
	}
	if g.has(workload.TermID(0)) {
		t.Fatal("oldest ghost not displaced")
	}
	if !g.has(workload.TermID(3*ghostCap - 1)) {
		t.Fatal("newest ghost missing")
	}
}

func Test2QReclaimsFromA1out(t *testing.T) {
	f := newFixture(t, testConfig(Policy2Q))
	q, ok := f.m.repl.(*twoQReplacement)
	if !ok {
		t.Fatalf("2Q manager runs %T", f.m.repl)
	}
	q.NoteL1ListInsert(workload.TermID(1))
	if q.seg[workload.TermID(1)] != segProbation {
		t.Fatal("first insert not probationary")
	}
	q.NoteL1ListEvict(workload.TermID(1))
	if !q.a1out.has(workload.TermID(1)) {
		t.Fatal("probation eviction missing from a1out")
	}
	q.NoteL1ListInsert(workload.TermID(1))
	if q.seg[workload.TermID(1)] != segProtected {
		t.Fatal("a1out re-reference not promoted to protected")
	}
	q.NoteL1ListEvict(workload.TermID(1))
	if q.a1out.has(workload.TermID(1)) {
		t.Fatal("protected eviction re-entered a1out")
	}
}
