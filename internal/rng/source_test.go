package rng

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand pins source to math/rand draw for draw: over more
// than 2000 seeds — zero, negatives, multiples of 2³¹−1 and their
// neighbours, the int64 extremes, then a random spread — 1500 draws each,
// alternating Uint64 and Int63 as rand.Rand's helpers do.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, lcgMod, -lcgMod, 2 * lcgMod, lcgMod - 1, lcgMod + 1,
		-lcgMod - 1, 89482311, -89482311, math.MaxInt64, math.MinInt64,
		math.MaxInt64 - 1, math.MinInt64 + 1, 1 << 31, -(1 << 31), 1 << 62}
	r := rand.New(rand.NewSource(99))
	for len(seeds) < 2048 {
		seeds = append(seeds, int64(r.Uint64()), r.Int63n(1<<40)-(1<<39))
	}
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for k := range 1500 {
			if k%3 == 2 {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, k, g, w)
				}
				continue
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, k, g, w)
			}
		}
	}
}

// FuzzLazySourceMatchesMathRand pins a Stream's lazy source to math/rand
// draw for draw: from seed, through the lazy draws, the cutover at lazyDraws
// and the 607-word ring after it, draws values with Uint64 and Int63 mixed
// by the bits of mix, as rand.Rand's helpers mix them.
func FuzzLazySourceMatchesMathRand(f *testing.F) {
	seeds := []int64{0, 1, -1, lcgMod, -lcgMod, 2 * lcgMod, -2 * lcgMod, 3 * lcgMod,
		math.MinInt64, math.MaxInt64}
	draws := []uint16{0, 272, 273, 274, 545, 546, 547, 606, 607, 608,
		lazyDraws - 1, lazyDraws, lazyDraws + 1, 2000}
	for i, seed := range seeds {
		for j, n := range draws {
			f.Add(seed, n, uint64(i*len(draws)+j)*0x9e3779b97f4a7c15)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mix uint64) {
		n %= 4096
		want := rand.NewSource(seed).(rand.Source64)
		s := New(uint64(seed))
		for k := range int(n) {
			if mix>>(k%64)&1 == 1 {
				if w, g := want.Int63(), s.r.Int63(); w != g {
					t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, k, g, w)
				}
				continue
			}
			if w, g := want.Uint64(), s.r.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, k, g, w)
			}
		}
	})
}

// BenchmarkSeed is the sweep that chose lazyDraws: per stream, building it
// and drawing n values, with the whole state seeded up front (newSource, as
// math/rand seeds) against New's lazy source. Past lazyDraws the lazy form
// pays the cutover too.
func BenchmarkSeed(b *testing.B) {
	for _, n := range []int{16, 64, 256, 607, 2000} {
		b.Run(fmt.Sprintf("eager/draws=%d", n), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				s := &Stream{seed: uint64(i)}
				s.r = rand.New(newSource(int64(i)))
				for range n {
					s.r.Uint64()
				}
			}
		})
		b.Run(fmt.Sprintf("lazy/draws=%d", n), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				s := New(uint64(i))
				for range n {
					s.r.Uint64()
				}
			}
		})
	}
}
