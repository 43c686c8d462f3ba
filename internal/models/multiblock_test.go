package models

import (
	"testing"

	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// multiBlockFixture builds a trained model of the given kind over a small
// random universe (graph kinds get a random bipartite graph).
func multiBlockFixture(t *testing.T, kind Kind, lazy bool) Recommender {
	t.Helper()
	cfg := DefaultConfig(23, 57)
	cfg.Dim = 6
	cfg.Layers = 2
	cfg.Seed = 11
	cfg.Lazy = lazy
	m, err := New(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(99).Derive("fixture")
	if gm, ok := m.(GraphRecommender); ok {
		g := make(edgeRows, cfg.NumUsers)
		for u := 0; u < cfg.NumUsers; u++ {
			for _, v := range s.SampleInts(cfg.NumItems, 5) {
				g.add(u, v, 0.3+s.Float64()*0.7)
			}
		}
		gm.SetGraph(g.engine(cfg.NumItems))
	}
	var batch []Sample
	for i := 0; i < 200; i++ {
		batch = append(batch, Sample{User: s.Intn(cfg.NumUsers), Item: s.Intn(cfg.NumItems), Label: s.Float64()})
	}
	m.TrainBatch(batch)
	return m
}

// scoreUsersBlock is the σ-domain view of the multi-user kernel these tests
// compare with the per-item oracles: the logit block with σ applied here, the
// way the kernel's consumers apply it to the scores they keep.
func scoreUsersBlock(mbs MultiBlockScorer, dst *tensor.Matrix, users, items []int) {
	mbs.ScoreUsersBlockLogitsInto(dst, users, items)
	for i, x := range dst.Data {
		dst.Data[i] = nn.Sigmoid(x)
	}
}

// scoreOneUser is scoreUsersBlock for a batch of one: user u's σ-domain row.
func scoreOneUser(mbs MultiBlockScorer, dst []float64, u int, items []int) {
	scoreUsersBlock(mbs, &tensor.Matrix{Rows: 1, Cols: len(items), Data: dst}, []int{u}, items)
}

// score is σ of user u's logit for item v, scored as a one-by-one block.
func score(mbs MultiBlockScorer, u, v int) float64 {
	var p [1]float64
	scoreOneUser(mbs, p[:], u, []int{v})
	return p[0]
}

// checkUsersBlockScalar scores users × items as one block and requires each
// entry to be bitwise-identical to scoring its item alone through the
// per-item oracle.
func checkUsersBlockScalar(t *testing.T, kind Kind, mbs MultiBlockScorer, is perItemOracle, users, items []int) {
	t.Helper()
	dst := tensor.New(len(users), len(items))
	scoreUsersBlock(mbs, dst, users, items)
	for i, u := range users {
		for j, v := range items {
			want := is.scoreItemsOracle(u, items[j:j+1])
			if dst.At(i, j) != want[0] {
				t.Fatalf("%s users=%d items=%d: dst[%d][%d] = %v, want %v (user %d item %d)",
					kind, len(users), len(items), i, j, dst.At(i, j), want[0], u, v)
			}
		}
	}
}

// TestScoreUsersBlockMatchesScalar pins the MultiBlockScorer contract for
// every model kind: each entry of the batched user-block score matrix is
// bitwise-identical to scoring its item alone through the per-item oracle, for
// batch sizes covering the GEMM kernel's interleaved quad path and its
// remainder tail.
func TestScoreUsersBlockMatchesScalar(t *testing.T) {
	kinds := []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN}
	s := rng.New(5).Derive("batch")
	for _, kind := range kinds {
		m := multiBlockFixture(t, kind, false)
		is := m.(perItemOracle)
		for _, nUsers := range []int{1, 3, 4, 7} {
			checkUsersBlockScalar(t, kind, m, is, s.SampleInts(23, nUsers), s.SampleInts(57, 1+s.Intn(57)))
		}
	}
}

// TestScorePairsMatchesScalar pins the shape dispersal re-scores (user, item)
// pairs in, for every model kind: one user's one-row block over an item list
// drawn with repeats is bitwise-identical to scoring each pair through the
// per-item path, across counts covering the interleaved quad path, its tail,
// and NeuMF's scoreChunkSize boundary at 300 items.
func TestScorePairsMatchesScalar(t *testing.T) {
	s := rng.New(17).Derive("pairs")
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m := multiBlockFixture(t, kind, false)
		is := m.(perItemOracle)
		for _, n := range []int{1, 3, 4, 9, 300} {
			items := make([]int, n)
			for i := range items {
				items[i] = s.Intn(57)
			}
			checkUsersBlockScalar(t, kind, m, is, []int{s.Intn(23)}, items)
		}
	}
}

// TestScoreUsersBlockLazyFallback pins the lazy-table fallback: models whose
// embedding tables materialise rows on read still satisfy the contract
// through the per-pair dot loop.
func TestScoreUsersBlockLazyFallback(t *testing.T) {
	m := multiBlockFixture(t, KindMF, true)
	users := []int{0, 3, 7, 7, 12, 22}
	items := []int{0, 5, 9, 31, 56}
	dst := tensor.New(len(users), len(items))
	scoreUsersBlock(m, dst, users, items)
	for i, u := range users {
		want := m.(perItemOracle).scoreItemsOracle(u, items)
		for j := range want {
			if dst.At(i, j) != want[j] {
				t.Fatalf("lazy MF: dst[%d][%d] = %v, want %v", i, j, dst.At(i, j), want[j])
			}
		}
	}
}

// BenchmarkMultiUserScoring compares sixteen batches of one with one 16-user
// batch of the gather-GEMM engine over a full-catalogue candidate block — the
// dispersal engine's hard-half shape. The gap is pure kernel: the GEMM's
// interleaved accumulators and shared candidate-row loads against one dot
// loop per user.
func BenchmarkMultiUserScoring(b *testing.B) {
	for _, kind := range []Kind{KindMF, KindLightGCN, KindNGCF} {
		m := blockModel(b, kind, false)
		if w, ok := m.(interface{ WarmScoring() }); ok {
			w.WarmScoring()
		}
		numUsers := blockConfig().NumUsers
		items := make([]int, blockConfig().NumItems)
		for i := range items {
			items[i] = i
		}
		users := make([]int, 16)
		for i := range users {
			users[i] = i % numUsers
		}
		dst := tensor.New(len(users), len(items))
		b.Run(string(kind)+"/per-user", func(b *testing.B) {
			row := tensor.New(1, len(items))
			for i := 0; i < b.N; i++ {
				for r := range users {
					m.ScoreUsersBlockLogitsInto(row, users[r:r+1], items)
				}
			}
		})
		b.Run(string(kind)+"/multi-user", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.ScoreUsersBlockLogitsInto(dst, users, items)
			}
		})
	}
}

// TestScoreUsersBlockEmptyItems pins the zero-item edge for every kind.
func TestScoreUsersBlockEmptyItems(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m := multiBlockFixture(t, kind, false)
		dst := tensor.New(2, 0)
		m.ScoreUsersBlockLogitsInto(dst, []int{0, 1}, nil) // must not panic
	}
}
