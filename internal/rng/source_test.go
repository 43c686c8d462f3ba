package rng

import (
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

// BenchmarkSeed times building a seeded source: math/rand's and this
// package's. Both allocate the same 607-word state.
func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			_ = rand.NewSource(int64(i))
		}
	})
	b.Run("source", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			_ = newSource(int64(i))
		}
	})
}
