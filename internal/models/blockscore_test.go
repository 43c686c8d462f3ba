package models

import (
	"testing"

	"ptffedrec/internal/graph"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// blockConfig is large enough that NeuMF's batched scoring crosses several
// scoreChunkSize boundaries.
func blockConfig() Config {
	return Config{NumUsers: 5, NumItems: 3*scoreChunkSize + 17, Dim: 4, LR: 0.01, Layers: 2, Seed: 11}
}

// blockGraph wires every user to a spread of items so propagation is
// non-trivial for the graph models.
func blockGraph(cfg Config) *graph.Incremental {
	g := make(edgeRows, cfg.NumUsers)
	s := rng.New(3)
	for u := 0; u < cfg.NumUsers; u++ {
		for k := 0; k < 40; k++ {
			g.add(u, s.Intn(cfg.NumItems), 1)
		}
	}
	return g.engine(cfg.NumItems)
}

// blockModel builds and briefly trains a model of the given kind on the
// block-scoring universe.
func blockModel(t testing.TB, kind Kind, lazy bool) Recommender {
	t.Helper()
	cfg := blockConfig()
	cfg.Lazy = lazy
	m, err := New(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gm, ok := m.(GraphRecommender); ok {
		gm.SetGraph(blockGraph(cfg))
	}
	s := rng.New(9)
	batch := make([]Sample, 64)
	for i := range batch {
		batch[i] = Sample{
			User:  s.Intn(cfg.NumUsers),
			Item:  s.Intn(cfg.NumItems),
			Label: float64(s.Intn(2)),
		}
	}
	for e := 0; e < 3; e++ {
		m.TrainBatch(batch)
	}
	return m
}

// raggedLists exercises candidate lists of every awkward size: empty, single,
// exactly one chunk, one element either side of a chunk boundary, and the
// full catalogue.
func raggedLists(numItems int) [][]int {
	sizes := []int{0, 1, 2, scoreChunkSize - 1, scoreChunkSize, scoreChunkSize + 1,
		2*scoreChunkSize + 5, numItems}
	s := rng.New(17)
	lists := make([][]int, 0, len(sizes))
	for _, n := range sizes {
		if n > numItems {
			n = numItems
		}
		items := make([]int, n)
		for i := range items {
			items[i] = s.Intn(numItems)
		}
		lists = append(lists, items)
	}
	return lists
}

// TestScoreBlockMatchesScalar pins the batched scoring engine's contract for
// every model kind: σ of a one-user logit block must be bitwise-identical to
// the per-item oracle for any candidate list.
func TestScoreBlockMatchesScalar(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m := blockModel(t, kind, false)
		is := m.(perItemOracle)
		for _, items := range raggedLists(blockConfig().NumItems) {
			for u := 0; u < blockConfig().NumUsers; u++ {
				want := is.scoreItemsOracle(u, items)
				got := make([]float64, len(items))
				scoreOneUser(m, got, u, items)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: u=%d |items|=%d: block score[%d]=%v, scalar=%v",
							kind, u, len(items), i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestScoreBlockLazyFallback pins the lazy-table path: client-style models
// (lazy embedding rows) must produce identical scores through the logit block.
func TestScoreBlockLazyFallback(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF} {
		m := blockModel(t, kind, true)
		items := raggedLists(blockConfig().NumItems)[6]
		want := m.(perItemOracle).scoreItemsOracle(0, items)
		got := make([]float64, len(items))
		scoreOneUser(m, got, 0, items)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s lazy: block score[%d]=%v, scalar=%v", kind, i, got[i], want[i])
			}
		}
	}
}

// TestScoreBlockRejectsBadDst pins the dst-shape contract.
func TestScoreBlockRejectsBadDst(t *testing.T) {
	m := blockModel(t, KindMF, false)
	defer func() {
		if recover() == nil {
			t.Fatal("short dst accepted")
		}
	}()
	m.ScoreUsersBlockLogitsInto(tensor.New(1, 2), []int{0}, []int{0, 1, 2})
}

// BenchmarkScoring compares the per-item oracle with a one-user block of the
// batched engine on a full-catalogue candidate list, per model kind.
func BenchmarkScoring(b *testing.B) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m := blockModel(b, kind, false)
		if w, ok := m.(interface{ WarmScoring() }); ok {
			w.WarmScoring()
		}
		items := make([]int, blockConfig().NumItems)
		for i := range items {
			items[i] = i
		}
		dst := make([]float64, len(items))
		b.Run(string(kind)+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.(perItemOracle).scoreItemsOracle(i%blockConfig().NumUsers, items)
			}
		})
		b.Run(string(kind)+"/block", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scoreOneUser(m, dst, i%blockConfig().NumUsers, items)
			}
		})
	}
}

// FuzzScoreBlockRagged fuzzes ragged candidate-list shapes (length, item
// skew, user) against the per-item oracle for every model kind on dense
// tables — MF's and the graph models' gather-GEMM, NeuMF's chunked MLP
// forward — and for the lazy MF and NeuMF every client trains, whose rows
// materialise on first read in the order both paths touch them.
func FuzzScoreBlockRagged(f *testing.F) {
	f.Add(uint64(1), uint(3), uint(0))
	f.Add(uint64(42), uint(scoreChunkSize), uint(1))
	f.Add(uint64(7), uint(2*scoreChunkSize+3), uint(4))
	var ms []Recommender
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		ms = append(ms, blockModel(f, kind, false))
	}
	ms = append(ms, blockModel(f, KindMF, true), blockModel(f, KindNeuMF, true))
	numItems := blockConfig().NumItems
	numUsers := blockConfig().NumUsers
	f.Fuzz(func(t *testing.T, seed uint64, n, u uint) {
		if n > uint(2*numItems) {
			n = uint(2 * numItems)
		}
		s := rng.New(seed)
		items := make([]int, n)
		for i := range items {
			items[i] = s.Intn(numItems)
		}
		user := int(u % uint(numUsers))
		for i, m := range ms {
			want := m.(perItemOracle).scoreItemsOracle(user, items)
			got := make([]float64, len(items))
			scoreOneUser(m, got, user, items)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s (lazy %v): score[%d]=%v, oracle %v", m.Name(), i >= 4, j, got[j], want[j])
				}
			}
		}
	})
}
