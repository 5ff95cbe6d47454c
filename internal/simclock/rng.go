package simclock

// Deterministic pseudo-random number generation for the simulation.
//
// The reproduction needs randomness in several independent places (document
// synthesis, query synthesis, device fault injection, property tests). To
// keep experiments reproducible regardless of the order in which components
// consume random numbers, each component receives its own RNG derived from a
// master seed with Split. RNG implements a 64-bit SplitMix64/xoshiro-style
// generator from scratch so the stream is stable across Go releases, unlike
// math/rand's unspecified global behaviour.

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). It is not safe for concurrent use; Split off one RNG per
// goroutine instead.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the seed-expansion state and returns the next value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Distinct seeds yield
// independent-looking streams; the same seed always yields the same stream.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of r's future
// output. The label keeps two Splits at the same point distinct.
func (r *RNG) Split(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simclock: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
