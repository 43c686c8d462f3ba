package rng

import "math/rand"

// source is math/rand's generator — Mitchell and Reeds' additive lagged
// Fibonacci generator over 607 words with a tap at 273 — reproduced draw for
// draw, with a seeding several times cheaper than math/rand's. math/rand
// seeds by stepping the Park–Miller LCG x ← 48271·x mod (2³¹−1) 1841 times in
// a row; every step is a division chain waiting on the one before. Here each
// of the 1821 values that fill the state is computed directly, x_k =
// 48271^k·x₀ mod (2³¹−1), from a table of the powers, so no product waits on
// another, and seedWord computes any one word on its own.
//
// Most streams draw only a few values, so a Stream starts on lazySource,
// which seeds no state at all. Draw k < lazyDraws is computed from the seed
// alone, through the recurrence
//
//	out_k = w((333−k) mod 607) + (k < 273 ? w(606−k) : out_{k−273})
//
// with w(i) seeded word i. Output k adds the feed word at (333−k) mod 607 to
// the tap word at (606−k) mod 607 and stores the sum at the feed. While
// k < 607 the feed word is still the seeded word; the tap word is too while
// k < 273, and after that it is output k−273, stored at its feed. So a draw
// costs two seeded words below 273, three below 546 and four below 607. At
// draw lazyDraws the lazy source seeds a source, replays it to that draw and
// hands it to the stream.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen  = 607
	srcTap  = 273
	srcWarm = 20 // LCG steps math/rand discards before the first word
	lcgMod  = 1<<31 - 1

	// lazyDraws is n₀, the draws a lazySource computes from the seed
	// before it seeds a source: the whole first pass over the ring, as far
	// as the recurrence holds. In BenchmarkSeed's sweep the lazy form is
	// faster than seeding up to about 300 draws and about a third slower
	// at 607, and every stream it keeps lazy saves a 5.4 KB state.
	lazyDraws = srcLen
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

// mulMod returns p·x mod (2³¹−1) for p, x < 2³¹. Folding the 62-bit product
// once at bit 31 (2³¹ ≡ 1) leaves a sum below twice the modulus, so one
// subtraction of the modulus reduces it.
func mulMod(p, x uint64) uint64 {
	y := p * x
	y = y&lcgMod + y>>31
	if y >= lcgMod {
		y -= lcgMod
	}
	return y
}

// seedWord returns word i of math/rand's state seeded from the LCG start x₀,
// before the cooked word is XORed in: it packs the LCG values of steps
// srcWarm+1+3i, +2 and +3 as x<<40 ^ x<<20 ^ x, in int64 arithmetic.
func seedWord(i int, x0 uint64) int64 {
	var w int64
	for _, p := range &seedPow[i] {
		w = w<<20 ^ int64(mulMod(p, x0))
	}
	return w
}

// seedWords writes math/rand's seeded state for the LCG start x₀ with the
// words mask XORed in.
func seedWords(x0 uint64, mask, vec *[srcLen]int64) {
	for i := range vec {
		vec[i] = seedWord(i, x0) ^ mask[i]
	}
}

// seedStart returns the LCG start math/rand derives from seed.
func seedStart(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// newSource returns a source in the state rand.NewSource(seed) starts in.
func newSource(seed int64) *source {
	s := &source{feed: srcLen - srcTap}
	seedWords(seedStart(seed), &cooked, &s.vec)
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

// lazySource is a Stream's source until the stream has drawn lazyDraws
// values: draw k comes from the seed alone (lazyOut), so no state is seeded.
// The next draw seeds a source, replays it past the lazy draws and hands the
// stream a generator directly over it, so every later draw runs exactly as if
// New had seeded eagerly; the draw in flight finishes through this wrapper on
// the same source.
type lazySource struct {
	s   *Stream
	src *source // the seeded source, once the stream is past lazyDraws
	x0  uint32  // the LCG start, seedStart(seed)
	k   int32   // the draws made so far, while below lazyDraws
}

func (l *lazySource) Uint64() uint64 {
	if l.k < lazyDraws {
		x := lazyOut(uint64(l.x0), int(l.k))
		l.k++
		return uint64(x)
	}
	if l.src == nil {
		l.src = newSource(int64(l.x0))
		for range lazyDraws {
			l.src.Uint64()
		}
		l.s.r = rand.New(l.src)
	}
	return l.src.Uint64()
}

func (l *lazySource) Int63() int64 { return int64(l.Uint64() &^ (1 << 63)) }
func (l *lazySource) Seed(int64)   { panic("rng: a Stream is seeded once, by New") }

// lazyOut returns output k < srcLen of the source with the LCG start x₀, by
// the recurrence in the file comment, unrolled until the tap word is a seeded
// word.
func lazyOut(x0 uint64, k int) int64 {
	var x int64
	for ; k >= srcTap; k -= srcTap {
		x += lazyWord(x0, srcLen-srcTap-1-k)
	}
	return x + lazyWord(x0, srcLen-srcTap-1-k) + lazyWord(x0, srcLen-1-k)
}

// lazyWord returns seeded word i mod srcLen, for −srcLen ≤ i < srcLen, of the
// source with the LCG start x₀.
func lazyWord(x0 uint64, i int) int64 {
	if i < 0 {
		i += srcLen
	}
	return seedWord(i, x0) ^ cooked[i]
}
