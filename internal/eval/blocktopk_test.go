package eval

import (
	"slices"
	"testing"

	"ptffedrec/internal/candset"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// TestBlockTopKMatchesPushAndAllocsNothing pins the engine's run pushes to a
// Push per eligible item, for one batch holding no exclusion list, an empty
// one, and exclusions at window edges (69/70, 139/140), in adjacent pairs
// (5, 6 and 63, 64) and at the first and last item — and, once the engine is
// warm, at zero allocations per selection.
func TestBlockTopKMatchesPushAndAllocsNothing(t *testing.T) {
	const numItems, window, k = 300, 70, 10
	s := rng.New(5)
	excl := [][]int{nil, {}, {0, 5, 6, 63, 64, 69, 70, 139, 140, 200, 299}}
	users := []int{0, 1, 2}
	logits := make([][]float64, len(users))
	for u := range logits {
		logits[u] = make([]float64, numItems)
		for v := range logits[u] {
			logits[u][v] = s.Normal(0, 3)
		}
	}
	scorer := logitFunc(func(u, v int) float64 { return logits[u][v] })
	tk := NewBlockTopK(identity(numItems), len(users), window, k)
	var top []int
	run := func() {
		tk.Select(scorer, users, excl)
		for i := range users {
			top = tk.Into(i, top)
		}
	}
	tk.Select(scorer, users, excl)
	for i, u := range users {
		var want metrics.LogitTopKSelector
		want.Reset(k)
		for _, v := range candset.AppendComplementSorted[int](nil, numItems, excl[i]) {
			want.Push(v, logits[u][v])
		}
		if got, w := tk.Into(i, nil), want.Into(nil); !slices.Equal(got, w) {
			t.Fatalf("exclusion %v: run pushes selected %v, per-item pushes %v", excl[i], got, w)
		}
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("BlockTopK allocates %v times per selection", allocs)
	}
}

// BenchmarkBlockTopK times one selection over 16 users × 4 096 items at
// d = 16 (an MF scorer), in the 1024-item windows dispersal runs it in, for
// train-list-shaped exclusions (1 item in 20, cutoff 20) and upload-shaped
// ones (40 items, cutoff α = 30). A warm engine reports 0 allocs/op.
func BenchmarkBlockTopK(b *testing.B) {
	const numUsers, numItems, dim, window = 16, 4096, 16, 1024
	m, err := models.New(models.KindMF, models.Config{NumUsers: numUsers, NumItems: numItems, Dim: dim, LR: 1e-2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	users, items := identity(numUsers), identity(numItems)
	s := rng.New(1).Derive("block-topk")
	for _, shape := range []struct {
		name     string
		excluded int
		k        int
	}{{"train", numItems / 20, 20}, {"upload", 40, 30}} {
		excl := make([][]int, numUsers)
		for u := range excl {
			excl[u] = s.SampleInts(numItems, shape.excluded)
			slices.Sort(excl[u])
		}
		b.Run(shape.name, func(b *testing.B) {
			tk := NewBlockTopK(items, numUsers, window, shape.k)
			var top []int
			selectAll := func() {
				tk.Select(m, users, excl)
				for i := range users {
					top = tk.Into(i, top)
				}
			}
			selectAll() // warms the score backing and top
			b.ReportAllocs()
			for b.Loop() {
				selectAll()
			}
		})
	}
}
