package eval

import (
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// scalarOnly hides a model's MultiBlockScorer so Ranking is forced through the
// per-item scoring path, while keeping the warm extension.
type scalarOnly struct {
	m models.Recommender
}

func (s scalarOnly) ScoreItems(u int, items []int) []float64 {
	return s.m.ScoreItems(u, items)
}

func (s scalarOnly) WarmScoring() {
	if w, ok := s.m.(models.Warmer); ok {
		w.WarmScoring()
	}
}

// naiveRank is the reference semantics every engine must reproduce bitwise:
// per evaluated user, score every non-train item, stable-sort the full score
// vector (metrics.TopK), and average Recall@k / NDCG@k in user order.
func naiveRank(s models.Scorer, sp *data.Split, k int) Result {
	var agg metrics.RankEval
	for u := 0; u < sp.NumUsers; u++ {
		if len(sp.Test[u]) == 0 {
			continue
		}
		var cand []int
		for v := 0; v < sp.NumItems; v++ {
			if !sp.InTrain(u, v) {
				cand = append(cand, v)
			}
		}
		var ranked []int
		for _, idx := range metrics.TopK(s.ScoreItems(u, cand), k) {
			ranked = append(ranked, cand[idx])
		}
		relevant := map[int]bool{}
		for _, v := range sp.Test[u] {
			relevant[v] = true
		}
		agg.AddUser(metrics.RecallAtK(ranked, relevant, k), metrics.NDCGAtK(ranked, relevant, k))
	}
	r, n := agg.Mean()
	return Result{Recall: r, NDCG: n, Users: agg.Users}
}

// TestRankingBatchedMatchesScalar pins the engine-level guarantee: Results
// are bitwise-identical whether Ranking scores through the batched logit
// engine or the per-item path, for every model kind and worker count.
func TestRankingBatchedMatchesScalar(t *testing.T) {
	d := data.Generate(data.Tiny, 11)
	sp := d.Split(rng.New(2), 0.2)
	for _, kind := range []models.Kind{models.KindMF, models.KindNeuMF, models.KindLightGCN, models.KindNGCF} {
		m := trainedModel(t, kind, sp)
		if _, ok := m.(models.MultiBlockScorer); !ok {
			t.Fatalf("%s does not implement MultiBlockScorer", kind)
		}
		ref := RankingWorkers(scalarOnly{m}, sp, 20, 1)
		if ref.Users == 0 {
			t.Fatalf("%s: no users evaluated", kind)
		}
		for _, workers := range []int{1, 2, 8} {
			if got := RankingWorkers(m, sp, 20, workers); got != ref {
				t.Fatalf("%s: batched workers=%d %+v != scalar %+v", kind, workers, got, ref)
			}
			if got := RankingWorkers(scalarOnly{m}, sp, 20, workers); got != ref {
				t.Fatalf("%s: scalar workers=%d %+v != scalar workers=1 %+v", kind, workers, got, ref)
			}
		}
	}
}
