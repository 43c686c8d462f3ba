package rng

import "math/rand"

// source is math/rand's generator — Mitchell and Reeds' additive lagged
// Fibonacci generator over 607 words with a tap at 273 — reproduced draw for
// draw, with a seeding several times cheaper (BenchmarkSeed). math/rand seeds
// by stepping the Park–Miller LCG x ← 48271·x mod (2³¹−1) 1841 times in a
// row; every step is a division chain waiting on the one before. Here each of
// the 1821 values that fill the state is computed directly, x_k = 48271^k·x₀
// mod (2³¹−1), from a table of the powers, so no product waits on another.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen  = 607
	srcTap  = 273
	srcWarm = 20 // LCG steps math/rand discards before the first word
	lcgMod  = 1<<31 - 1
)

var (
	// seedPow[i][c] is 48271^k mod (2³¹−1) for the LCG step k = srcWarm+1+3i+c
	// whose value becomes part c of state word i.
	seedPow [srcLen][3]uint64
	// cooked is the constant word math/rand XORs into each seeded word. It is
	// recovered at init from math/rand's own output, so that no table is
	// copied: see deriveCooked.
	cooked [srcLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= srcWarm+3*srcLen; k++ {
		p = p * 48271 % lcgMod
		if k > srcWarm {
			j := k - srcWarm - 1
			seedPow[j/3][j%3] = p
		}
	}
	cooked = deriveCooked()
}

// mulMod returns p·x mod (2³¹−1) for p, x < 2³¹ by folding the 62-bit product
// twice at bit 31 (2³¹ ≡ 1) and subtracting the modulus once.
func mulMod(p, x uint64) uint64 {
	y := p * x
	y = y&lcgMod + y>>31
	y = y&lcgMod + y>>31
	if y >= lcgMod {
		y -= lcgMod
	}
	return y
}

// seedWords writes math/rand's seeded state for the LCG start x₀ with the
// words mask XORed in: word i packs the LCG values of steps srcWarm+1+3i, +2
// and +3 as x<<40 ^ x<<20 ^ x, in int64 arithmetic, and XORs in mask[i].
func seedWords(x0 uint64, mask, vec *[srcLen]int64) {
	for i := range vec {
		pw := &seedPow[i]
		vec[i] = int64(mulMod(pw[0], x0))<<40 ^ int64(mulMod(pw[1], x0))<<20 ^ int64(mulMod(pw[2], x0)) ^ mask[i]
	}
}

// newSource returns a source in the state rand.NewSource(seed) starts in.
func newSource(seed int64) *source {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s := &source{feed: srcLen - srcTap}
	seedWords(uint64(seed), &cooked, &s.vec)
	return s
}

// deriveCooked recovers math/rand's cooked words from the first srcLen
// outputs of rand.NewSource(1). Output k adds the words at feed 333−k and tap
// 606−k (mod srcLen) and stores the sum at the feed, so with orig the seeded
// state:
//
//	k in 273…333: orig[333−k] = out_k − out_{k−273}
//	k in 334…606: orig[940−k] = out_k − out_{k−273}
//	k in   0…272: orig[333−k] = out_k − orig[606−k]
//
// and the cooked words are orig XOR the seed-1 words, all in wrapping int64
// arithmetic.
func deriveCooked() [srcLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out, orig [srcLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	for k := srcTap; k < srcLen; k++ {
		orig[(srcLen+srcLen-srcTap-1-k)%srcLen] = out[k] - out[k-srcTap]
	}
	for k := 0; k < srcTap; k++ {
		orig[srcLen-srcTap-1-k] = out[k] - orig[srcLen-1-k]
	}
	seedWords(1, &orig, &orig)
	return orig
}

// Uint64 is math/rand's rngSource.Uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is math/rand's rngSource.Int63.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Seed panics: a source is seeded once, by newSource.
func (s *source) Seed(int64) { panic("rng: a Stream is seeded once, by New") }
