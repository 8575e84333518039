// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the repository.
//
// Reproducibility is a hard requirement for the experiment harness: every
// table and figure in the paper is the aggregate of runs over 100 fixed
// seeds, the probe workers run concurrently, and each agent of the
// message-passing Distributed MWU draws only from its own stream, so
// every consumer needs an independent stream that does not contend on a
// shared source and does not depend on the order in which others draw.
//
// The generator is xoshiro256**, seeded through splitmix64, following the
// reference construction by Blackman and Vigna. Split derives a child
// stream whose sequence is independent of (and stable under) any draws
// made later from the parent.
package rng

import "math"

// RNG is a xoshiro256** generator. It is NOT safe for concurrent use; use
// Split to derive one generator per goroutine.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used for seeding so that nearby seeds yield well-separated states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Two generators built
// from the same seed produce identical sequences.
func New(seed uint64) *RNG {
	r := &RNG{}
	state := seed
	r.s0 = splitmix64(&state)
	r.s1 = splitmix64(&state)
	r.s2 = splitmix64(&state)
	r.s3 = splitmix64(&state)
	// A xoshiro state of all zeros is absorbing; splitmix64 cannot produce
	// four consecutive zeros, but guard anyway for clarity.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent's state at the moment of the call,
// so splitting N children in a loop yields N mutually independent,
// reproducible streams.
func (r *RNG) Split() *RNG {
	// Draw two words from the parent and re-seed through splitmix64. The
	// double draw keeps child streams distinct even if the parent is used
	// to produce many children in sequence.
	a := r.Uint64()
	b := r.Uint64()
	return New(a ^ rotl(b, 32))
}

// SplitN derives n independent child generators, splitting in ascending
// index order — the canonical way to seed a fixed-size set of per-slot
// streams (wrs.ConcurrentAlias's slots, the Run driver's probe streams)
// in one call.
func (r *RNG) SplitN(n int) []*RNG {
	if n < 0 {
		panic("rng: SplitN called with negative n")
	}
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleWithoutReplacement returns m distinct indices drawn uniformly from
// [0, n). It panics if m > n or either argument is negative.
func (r *RNG) SampleWithoutReplacement(n, m int) []int {
	if m < 0 || n < 0 || m > n {
		panic("rng: invalid SampleWithoutReplacement arguments")
	}
	if m == 0 {
		return nil
	}
	// Floyd's algorithm: m draws, with the chosen set as a bitset over
	// [0, n) that lives on the stack for n up to 1024.
	var buf [16]uint64
	chosen := buf[:]
	if n > 64*len(buf) {
		chosen = make([]uint64, (n+63)/64)
	}
	out := make([]int, 0, m)
	for j := n - m; j < n; j++ {
		t := r.Intn(j + 1)
		if chosen[t/64]&(1<<(t%64)) != 0 {
			t = j
		}
		chosen[t/64] |= 1 << (t % 64)
		out = append(out, t)
	}
	// Floyd's algorithm yields a set; shuffle for a uniform ordered sample.
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Categorical draws an index from the (unnormalized, non-negative) weight
// vector w. It panics if the total weight is not positive and finite.
func (r *RNG) Categorical(w []float64) int {
	total := 0.0
	for _, wi := range w {
		total += wi
	}
	if !(total > 0) || math.IsInf(total, 1) {
		panic("rng: Categorical requires positive finite total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, wi := range w {
		acc += wi
		if u < acc {
			return i
		}
	}
	// Floating-point slack: fall back to the last positively-weighted index.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return len(w) - 1
}
