package eval

import (
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// naiveRank is the reference semantics the engine must reproduce bitwise: per
// evaluated user, score every non-train item as one one-user block, apply σ,
// stable-sort the full score vector (metrics.TopK), and average Recall@k /
// NDCG@k in user order.
func naiveRank(s models.MultiBlockScorer, sp *data.Split, k int) Result {
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
		row := tensor.New(1, len(cand))
		s.ScoreUsersBlockLogitsInto(row, []int{u}, cand)
		for j, x := range row.Data {
			row.Data[j] = nn.Sigmoid(x)
		}
		var ranked []int
		for _, idx := range metrics.TopK(row.Data, k) {
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
// from the batched logit engine are bitwise-identical to naiveRank's, for
// every model kind and worker count, at the shipped batch and window and at
// 3 users × 8 items, where the bounded kinds (MF, LightGCN) retire users
// mid-catalogue: there they must score fewer user-windows than in id order.
func TestRankingBatchedMatchesScalar(t *testing.T) {
	defer func(b, c int) { evalUsersBatch, evalScoreChunk = b, c }(evalUsersBatch, evalScoreChunk)
	d := data.Generate(data.Tiny, 11)
	sp := d.Split(rng.New(2), 0.2)
	shapes := []struct{ batch, chunk int }{{evalUsersBatch, evalScoreChunk}, {3, 8}}
	for _, kind := range []models.Kind{models.KindMF, models.KindNeuMF, models.KindLightGCN, models.KindNGCF} {
		m := trainedModel(t, kind, sp)
		ref := naiveRank(m, sp, 20)
		if ref.Users == 0 {
			t.Fatalf("%s: no users evaluated", kind)
		}
		for _, shape := range shapes {
			evalUsersBatch, evalScoreChunk = shape.batch, shape.chunk
			for _, workers := range []int{1, 2, 8} {
				if got := RankingWorkers(m, sp, 20, workers); got != ref {
					t.Fatalf("%s batch=%d chunk=%d: batched workers=%d %+v != naive %+v",
						kind, shape.batch, shape.chunk, workers, got, ref)
				}
			}
		}
		if _, ok := m.(models.LogitBounder); ok {
			e := NewEvaluator(sp)
			_, win := countWindows(e, m, 20)
			if _, idWin := countWindows(e, unbounded{m}, 20); win >= idWin {
				t.Fatalf("%s: bound order scored %d user-windows, id order %d", kind, win, idWin)
			}
		}
	}
}
