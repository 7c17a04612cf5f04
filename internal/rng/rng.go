// Package rng provides the deterministic pseudo-random number generator used
// by every experiment in this repository.
//
// The generator is xoshiro256** seeded through splitmix64, implemented here
// rather than taken from math/rand so that the byte-for-byte output is pinned
// by this package alone: results never shift under a Go toolchain upgrade,
// and two components can derive independent, reproducible streams from the
// same experiment seed.
package rng

import "math"

// Source is a deterministic pseudo-random source. It is not safe for
// concurrent use; give each goroutine a Source of its own.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed. Any seed, including zero,
// yields a full-period generator because the state is expanded through
// splitmix64.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source to the state derived from seed.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	for i := range s.s {
		sm, s.s[i] = splitmix64(sm)
	}
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method for unbiased bounded values.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to avoid modulo bias.
	threshold := -n % n
	for {
		v := s.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric is the geometric distribution with success probability p: the
// number of failures before the first success. It is used for
// inter-arrival gaps such as "instructions between memory operations", and
// holds log(1-p) so a draw computes one logarithm, not two.
type Geometric struct {
	logQ    float64 // log(1-p)
	certain bool    // p >= 1: every draw is 0 and takes no random number
}

// NewGeometric returns the distribution for p, which must be in (0, 1].
func NewGeometric(p float64) Geometric {
	if p <= 0 {
		panic("rng: Geometric with p <= 0")
	}
	return Geometric{logQ: math.Log(1 - p), certain: p >= 1}
}

// Draw returns one sample, taking one Float64 from s unless p is 1.
func (g Geometric) Draw(s *Source) uint64 {
	if g.certain {
		return 0
	}
	u := s.Float64()
	// Avoid log(0).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return uint64(math.Log(u) / g.logQ)
}

// Fill fills b with pseudo-random bytes.
func (s *Source) Fill(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := s.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := s.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Zipf samples from a Zipf-like distribution over [0, n) with skew parameter
// theta in [0, 1). theta = 0 degenerates to uniform; larger theta concentrates
// probability on low indices. It uses the standard power-of-uniform
// approximation which is adequate for locality modelling.
func (s *Source) Zipf(n uint64, theta float64) uint64 {
	if n == 0 {
		panic("rng: Zipf with n == 0")
	}
	if theta <= 0 {
		return s.Uint64n(n)
	}
	u := s.Float64()
	idx := uint64(float64(n) * math.Pow(u, 1/(1-theta)))
	if idx >= n {
		idx = n - 1
	}
	return idx
}
