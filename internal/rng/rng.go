// Package rng provides a small, fast, deterministic random number generator
// for the simulation harness.
//
// Experiments in this repository must be bit-reproducible across runs and
// across machines so that every experiment table can be regenerated exactly.
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by its authors for general-purpose simulation; it has a 2^256-1
// period and passes BigCrush. Streams can be split so that independent
// subsystems (fault generator, source/destination sampling, per-trial seeds)
// draw from decorrelated sequences.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** stream.
type Source struct {
	s [4]uint64
}

// New returns a stream seeded from the given seed via SplitMix64, which
// guarantees a well-mixed non-zero internal state for any seed value.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the stream to the state derived from seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives an independent child stream. The child is seeded from the
// parent's next output, so splitting is itself deterministic.
func (r *Source) Split() *Source {
	child := new(Source)
	r.SplitInto(child)
	return child
}

// SplitInto seeds child, in place, as the stream Split would return: it
// takes the same one draw from r and allocates nothing.
func (r *Source) SplitInto(child *Source) {
	child.Reseed(r.Uint64())
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n); it panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := bits.Mul64(x, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Failures runs up to n trials of Bool(p) in one pass and returns how many
// failed before the first success: n when none did, and otherwise the index
// of the trial that succeeded, whose draw is the last one taken. It consumes
// exactly the draws of those Bool calls, with their outcomes: Bool(p) is
// u>>11 < p·2^53 for the next output u, and u>>11 is an integer, so the
// test is u>>11 < ceil(p·2^53), one integer compare a draw with the state
// in registers.
//
//meshvet:noalloc TestGeneratorStepAllocFree
func (r *Source) Failures(p float64, n int) int {
	var t uint64 // ceil(p·2^53), clamped to [0, 2^53]; NaN never succeeds
	switch {
	case p >= 1:
		t = 1 << 53
	case p > 0:
		t = uint64(math.Ceil(p * (1 << 53)))
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	i := 0
	for ; i < n; i++ {
		u := bits.RotateLeft64(s1*5, 7) * 9
		x := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= x
		s3 = bits.RotateLeft64(s3, 45)
		if u>>11 < t {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return i
}

// Geometric returns a sample from the geometric distribution with success
// probability p (number of trials until first success, >= 1). Used to draw
// fault inter-arrival intervals. Panics unless 0 < p <= 1.
func (r *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	n := 1
	for !r.Bool(p) {
		n++
		if n >= 1<<20 { // defensive cap against pathological p values
			return n
		}
	}
	return n
}
