package fed

import (
	"testing"

	"ptffedrec/internal/models"
)

// scalarModel hides a server model's MultiBlockScorer so every score goes
// through the per-item path, while forwarding the warm-up scoring relies on.
// The evaluator is driven through it to pin block scoring against per-item
// scoring.
type scalarModel struct {
	m models.Recommender
}

func (s *scalarModel) ScoreItems(u int, items []int) []float64 {
	return s.m.ScoreItems(u, items)
}
func (s *scalarModel) WarmScoring() {
	if w, ok := s.m.(models.Warmer); ok {
		w.WarmScoring()
	}
}

// TestEvalInvariantBatchedVsScalar pins the batched scoring engine's contract
// on the trainer's evaluation: after every live round, for every server model
// kind and several worker counts, ranking the server model through its
// multi-user kernels gives the metrics that ranking it per item gives. (The
// dispersal half of the same contract is TestDisperseMatchesScalarOracle.)
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
			batched := tr.EvaluateServer()
			for _, workers := range []int{1, 2, 8} {
				perItem := tr.splitEvaluator().Rank(&scalarModel{tr.server.model}, cfg.EvalK, workers)
				if perItem != batched {
					t.Fatalf("%s round %d workers=%d: per-item eval %+v != batched %+v", server, round, workers, perItem, batched)
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
