package fed

import (
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// scoreItems is σ of user u's one-user logit block over items: by the
// MultiBlockScorer contract, the per-item probabilities.
func scoreItems(m models.MultiBlockScorer, u int, items []int) []float64 {
	row := tensor.New(1, len(items))
	m.ScoreUsersBlockLogitsInto(row, []int{u}, items)
	for j, x := range row.Data {
		row.Data[j] = nn.Sigmoid(x)
	}
	return row.Data
}

// naiveEval is the score-everything-then-sort evaluation: per evaluated user,
// every non-train item scored by scoreItems, ranked by metrics.TopK, and
// Recall@k / NDCG@k averaged in user order.
func naiveEval(m models.MultiBlockScorer, sp *data.Split, k int) eval.Result {
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
		for _, idx := range metrics.TopK(scoreItems(m, u, cand), k) {
			ranked = append(ranked, cand[idx])
		}
		relevant := map[int]bool{}
		for _, v := range sp.Test[u] {
			relevant[v] = true
		}
		agg.AddUser(metrics.RecallAtK(ranked, relevant, k), metrics.NDCGAtK(ranked, relevant, k))
	}
	r, n := agg.Mean()
	return eval.Result{Recall: r, NDCG: n, Users: agg.Users}
}

// TestEvalInvariantBatchedVsScalar pins the batched scoring engine's contract
// on the trainer's evaluation: after every live round, for every server model
// kind and several worker counts, ranking the server model through its
// multi-user kernels gives the metrics a naive per-user sort of every
// candidate's score gives. (The dispersal half of the same contract is
// TestDisperseMatchesScalarOracle.)
func TestEvalInvariantBatchedVsScalar(t *testing.T) {
	kinds := []models.Kind{models.KindMF, models.KindNeuMF, models.KindLightGCN, models.KindNGCF}
	if testing.Short() {
		kinds = []models.Kind{models.KindNeuMF, models.KindLightGCN}
	}
	sp := tinySplit(t)
	for _, server := range kinds {
		cfg := fastConfig(server)
		cfg.Rounds = 2
		tr, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < cfg.Rounds; round++ {
			tr.RunRound(round)
			naive := naiveEval(tr.Server().model, sp, cfg.EvalK)
			for _, workers := range []int{1, 2, 8} {
				batched := tr.splitEvaluator().Rank(tr.Server().model, cfg.EvalK, workers)
				if batched != naive {
					t.Fatalf("%s round %d workers=%d: batched eval %+v != naive %+v", server, round, workers, batched, naive)
				}
			}
		}
	}
}

// TestRunRoundEvalMatchesSequential pins the overlap's determinism: a round
// evaluated during its dispersal (RunRound at EvalEvery = 1) must produce the
// same round trace and the same metrics as dispersing first and evaluating
// after (RunRound at EvalEvery = 0, then EvaluateServer).
func TestRunRoundEvalMatchesSequential(t *testing.T) {
	sp := tinySplit(t)
	for _, server := range []models.Kind{models.KindNeuMF, models.KindLightGCN} {
		cfg := fastConfig(server)
		cfg.Rounds = 3

		a, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.EvalEvery = 1
		b, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < cfg.Rounds; round++ {
			sa := a.RunRound(round)
			resA := a.EvaluateServer()
			sb := b.RunRound(round)
			sa.Recall, sa.NDCG, sa.Evaluated = resA.Recall, resA.NDCG, true
			if sa != sb {
				t.Fatalf("%s round %d: overlapped stats %+v != sequential %+v", server, round, sb, sa)
			}
		}
	}
}
