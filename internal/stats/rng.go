// Package stats provides the deterministic random-number substrate and the
// descriptive-statistics helpers used throughout the library.
//
// Every stochastic component in the reproduction (workload generators, answer
// simulation, online arrival orders, randomised algorithms) draws from an
// *explicit* stats.RNG seeded by the caller, never from a global source.
// This keeps experiments bit-for-bit reproducible: the same seed always
// yields the same market, the same arrival order and the same simulated
// answers, on any platform, independent of Go's math/rand evolution.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on the
// PCG-XSH-RR 64/32 construction (O'Neill 2014) layered over a splitmix64
// seeding routine.  It is intentionally self-contained so that experiment
// outputs never change under Go toolchain upgrades.
//
// RNG is not safe for concurrent use; give each goroutine its own instance
// (see Split).
type RNG struct {
	state uint64
	inc   uint64
}

// splitmix64 advances a seed and returns a well-mixed 64-bit value.  It is
// the standard seeding function for PCG-family generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator deterministically derived from seed.
func NewRNG(seed uint64) *RNG {
	s := seed
	r := &RNG{}
	r.state = splitmix64(&s)
	r.inc = splitmix64(&s) | 1 // increment must be odd
	return r
}

// Split derives an independent child generator.  The child's stream is a
// deterministic function of the parent's current state, so calling Split at
// the same point in a run always yields the same child.  Use it to hand
// private generators to parallel workers without sharing state.
func (r *RNG) Split() *RNG {
	s := r.Uint64() ^ 0xd3833e804f4c574b
	return NewRNG(s)
}

// Uint64 returns the next 64 bits of the stream (two PCG-32 outputs).
func (r *RNG) Uint64() uint64 {
	hi := uint64(r.Uint32())
	lo := uint64(r.Uint32())
	return hi<<32 | lo
}

// Uint32 returns the next 32 bits of the stream.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 random bits / 2^53, the standard full-precision construction.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n).  It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// IntRange returns a uniform int in [lo, hi] inclusive.  It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64Range returns a uniform float64 in [lo, hi).
func (r *RNG) Float64Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	return r.PermInto(nil, n)
}

// PermInto is Perm writing into buf when its capacity suffices, so repeated
// draws of same-length permutations (the online solvers' arrival orders)
// allocate nothing.  It draws exactly the same RNG stream as Perm, so a
// caller switching between the two never perturbs downstream randomness.
func (r *RNG) PermInto(buf []int, n int) []int {
	var p []int
	if cap(buf) >= n {
		p = buf[:n]
	} else {
		p = make([]int, n)
	}
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Normal returns a sample from the standard normal distribution using the
// Box–Muller transform (the polar variant is avoided so the number of RNG
// draws per sample is fixed, preserving stream alignment).
func (r *RNG) Normal() float64 {
	// Guard against log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormalMS returns a normal sample with the given mean and standard
// deviation.
func (r *RNG) NormalMS(mean, std float64) float64 {
	return mean + std*r.Normal()
}

// TruncNormal returns a normal(mean, std) sample clamped to [lo, hi] by
// rejection with a bounded retry count; after 64 rejections it clamps, which
// keeps the generator total even for pathological intervals.
func (r *RNG) TruncNormal(mean, std, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		x := r.NormalMS(mean, std)
		if x >= lo && x <= hi {
			return x
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// LogNormal returns a log-normal sample with the given parameters of the
// underlying normal (mu, sigma).  Real labor-market prices are famously
// log-normal, which is why the trace generators use this.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormalMS(mu, sigma))
}
