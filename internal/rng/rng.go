// Package rng turns a seed into a random stream. New is the module's
// one constructor: its stream is bit-identical to math/rand v1's
// rand.New(rand.NewSource(seed)), but seeding does no work.
//
// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word feedback register. Seeding fills every word from a
// Park–Miller sequence x(n+1) = 48271·x(n) mod (2³¹−1) started at the
// normalized seed x(0): word i is
//
//	x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ rngCooked[i]
//
// which costs 1,841 sequential steps per seed. Since x(n) = 48271ⁿ·x(0)
// mod (2³¹−1), a power table built once lets any word be computed on
// its own, so this source computes each word on its first read instead.
// The draws walk the register exactly as math/rand does; every word is
// read for the first time within the first 334 draws, so after those a
// draw costs what math/rand's does. A Monte Carlo realization that
// draws a few dozen numbers pays for a few dozen words, not 607.
package rng

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// cold is the number of draws that read at least one word for the
	// first time: the feed index starts at rngLen-rngTap and reaches 0
	// on that draw.
	cold = rngLen - rngTap
)

// pow[k] = 48271^(21+k) mod (2³¹−1): the multipliers of the Park–Miller
// steps word k/3 reads.
var pow = func() (p [3 * rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21+len(p); n++ {
		if n >= 21 {
			p[n-21] = x
		}
		x = x * 48271 % int32max
	}
	return p
}()

// New returns a generator whose stream is bit-identical to
// rand.New(rand.NewSource(seed)). Seeding is O(1); like math/rand's, the
// generator is not safe for concurrent use.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's rngSource with a lazily seeded register.
type source struct {
	tap  int // index into vec
	feed int // index into vec
	// fresh counts the draws left that read a word for the first time.
	fresh int
	x0    uint64 // normalized seed
	vec   [rngLen]int64
}

// Seed resets the generator to seed's stream, normalizing seed exactly
// as math/rand does.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap, s.feed, s.fresh, s.x0 = 0, rngLen-rngTap, cold, uint64(seed)
}

// Int63 returns a non-negative pseudo-random 63-bit integer: one step
// of math/rand's register walk. In the first cold draws the feed index
// walks down from cold-1 to 0, reading each word for the first time;
// the tap index walks down from rngLen-1, and its words are new while
// it stays at or above cold — below that, the feed index has already
// passed them. The step calls nothing, as math/rand's does: with the
// cold words filled by a call, even one not taken, a Float64 draw took
// 7.9 ns against math/rand's 5.9 (go1.24.0).
func (s *source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.fresh > 0 {
		s.fresh--
		s.vec[s.feed] = s.word(s.feed)
		if s.tap >= cold {
			s.vec[s.tap] = s.word(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// Uint64 returns a pseudo-random 64-bit integer: the word the step just
// wrote, before Int63 masks its top bit.
func (s *source) Uint64() uint64 {
	s.Int63()
	return uint64(s.vec[s.feed])
}

// word returns register word i as math/rand's seeding leaves it.
func (s *source) word(i int) int64 {
	p := pow[3*i : 3*i+3]
	u := int64(p[0]*s.x0%int32max) << 40
	u ^= int64(p[1]*s.x0%int32max) << 20
	u ^= int64(p[2] * s.x0 % int32max)
	return u ^ rngCooked[i]
}
