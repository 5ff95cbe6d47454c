package simclock

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("step %d: streams diverge: %d vs %d", i, x, y)
		}
	}
}

func TestRNGDistinctSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	var allZero = true
	for i := 0; i < 16; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("seed 0 produced a degenerate all-zero stream")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child1 := parent.Split(1)
	child2 := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if child1.Uint64() == child2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children produced %d identical values out of 100", same)
	}
}

func TestRNGSplitDeterministic(t *testing.T) {
	c1 := NewRNG(7).Split(9)
	c2 := NewRNG(7).Split(9)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("same split path diverged at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniform = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid or duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
