package metrics

import (
	"reflect"
	"testing"

	"ptffedrec/internal/rng"
)

// refTopK is TopK's documented semantics, spelled out independently: the
// indices ordered by (score desc, index asc), truncated to k.
func refTopK(scores []float64, k int) []int {
	got := TopK(scores, k)
	out := make([]int, len(got))
	copy(out, got)
	return out
}

// TestTopKIntoMatchesSortTrials fuzzes the bounded-heap selection against
// the stable-sort reference on tie-heavy vectors (scores drawn from a small
// grid, so duplicates are the norm) including k = 0, k ≥ n, and
// single-element edge cases.
func TestTopKIntoMatchesSortTrials(t *testing.T) {
	s := rng.New(99)
	var buf []int
	for trial := 0; trial < 600; trial++ {
		n := 1 + s.Intn(150)
		k := s.Intn(n + 5)
		scores := make([]float64, n)
		for i := range scores {
			// A small grid makes ties frequent; every 7th trial uses a
			// constant vector so the whole selection is tie-breaking.
			if trial%7 == 0 {
				scores[i] = 0.5
			} else {
				scores[i] = float64(s.Intn(10)) / 9
			}
		}
		want := refTopK(scores, k)
		buf = TopKInto(buf, scores, k)
		if len(want) == 0 {
			if len(buf) != 0 {
				t.Fatalf("trial %d: TopKInto = %v, want empty", trial, buf)
			}
		} else if !reflect.DeepEqual(buf, want) {
			t.Fatalf("trial %d (n=%d k=%d): TopKInto = %v, want %v", trial, n, k, buf, want)
		}
	}
}

// TestTopKIntoReusesDst checks the allocation contract: a dst with capacity k
// is reused, not replaced.
func TestTopKIntoReusesDst(t *testing.T) {
	scores := []float64{0.3, 0.9, 0.1, 0.9, 0.5}
	dst := make([]int, 0, 3)
	out := TopKInto(dst, scores, 3)
	if want := []int{1, 3, 4}; !reflect.DeepEqual(out, want) {
		t.Fatalf("TopKInto = %v, want %v", out, want)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("TopKInto did not reuse dst's storage")
	}
	allocs := testing.AllocsPerRun(100, func() {
		out = TopKInto(out, scores, 3)
	})
	if allocs != 0 {
		t.Fatalf("TopKInto with warm dst allocates %v times per run", allocs)
	}
}

// FuzzTopKIntoMatchesSort is the equality fuzz the selection engine's
// bitwise-identity contract rests on: for arbitrary byte-derived score
// vectors — quantized to a coarse grid so duplicate scores and long tie runs
// dominate — TopKInto must reproduce the stable-sort TopK order exactly.
func FuzzTopKIntoMatchesSort(f *testing.F) {
	f.Add([]byte{}, 5)
	f.Add([]byte{0, 0, 0, 0}, 2)
	f.Add([]byte{255, 0, 255, 0, 128}, 3)
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, 4)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 20)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if k < 0 || k > len(data)+8 {
			return
		}
		scores := make([]float64, len(data))
		for i, b := range data {
			// 16 distinct values force heavy ties on any input of real length.
			scores[i] = float64(b%16) / 15
		}
		want := refTopK(scores, k)
		if got := TopKInto(nil, scores, k); !reflect.DeepEqual(got, append([]int{}, want...)) && len(want) > 0 {
			t.Fatalf("TopKInto = %v, want %v (scores %v, k %d)", got, want, scores, k)
		}
	})
}

// BenchmarkTopKSelect compares the full stable sort against the bounded-heap
// selection at eval-shaped sizes (a 4000-item catalogue, k=20) — the per-user
// cost the selection engine removes from the evaluation hot loop.
func BenchmarkTopKSelect(b *testing.B) {
	s := rng.New(1)
	scores := make([]float64, 4000)
	for i := range scores {
		scores[i] = s.Float64()
	}
	b.Run("sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TopK(scores, 20)
		}
	})
	b.Run("heap", func(b *testing.B) {
		var dst []int
		for i := 0; i < b.N; i++ {
			dst = TopKInto(dst, scores, 20)
		}
	})
}
