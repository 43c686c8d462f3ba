package fed

import (
	"fmt"
	"testing"

	"ptffedrec/internal/models"
)

// pipelineConfig shapes a run that actually exercises both pipeline waves:
// partial participation keeps cohorts changing round to round, so every
// round has dependency-free clients (the free wave) and dispersal-gated
// clients (the gated wave). A mid-run evaluation exercises the overlapped
// eval inside the pipelined close.
func pipelineConfig(server models.Kind, workers int, faulted bool) Config {
	cfg := fastConfig(server)
	cfg.Rounds = 4
	cfg.ClientFraction = 0.3
	cfg.EvalEvery = 2
	cfg.Workers = workers
	if faulted {
		cfg.Faults = FaultPlan{DropoutRate: 0.2, TruncateRate: 0.25}
	}
	return cfg
}

// runSerialHistory is Algorithm 1 as written — one round after another, each
// evaluated when due, then the final evaluation — the schedule oracle the
// cross-round pipeline behind Trainer.Run is pinned against.
func runSerialHistory(t *testing.T, cfg Config) *History {
	t.Helper()
	tr, err := NewTrainer(tinySplit(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []RoundStats
	for round := 0; round < cfg.Rounds; round++ {
		var rs RoundStats
		if cfg.EvalEvery > 0 && (round+1)%cfg.EvalEvery == 0 {
			rs, _ = tr.RunRoundEval(round)
		} else {
			rs = tr.RunRound(round)
		}
		rounds = append(rounds, rs)
	}
	return NewHistory(rounds, tr.EvaluateServer())
}

// TestNewHistoryMatchesRun pins the one History assembly: rebuilding a run's
// History from its own rounds and final result reproduces it bitwise, and a
// run of no rounds has a zero MeanAttackF1 (the hand-written copies NewHistory
// replaced divided by the round count unguarded).
func TestNewHistoryMatchesRun(t *testing.T) {
	tr, err := NewTrainer(tinySplit(t), fastConfig(models.KindNeuMF))
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if h.MeanAttackF1 == 0 {
		t.Fatal("run reports no attack F1; the comparison would be vacuous")
	}
	requireEqualHistories(t, "NewHistory(h.Rounds, h.Final)", NewHistory(h.Rounds, h.Final), h)
	if empty := NewHistory(nil, h.Final); empty.MeanAttackF1 != 0 || empty.Final != h.Final {
		t.Fatalf("NewHistory of no rounds = %+v, want zero MeanAttackF1 and the final result", empty)
	}
}

// TestPipelinedMatchesSequential pins the schedule invariant: the cross-round
// pipeline produces a History bitwise-identical to the serial round loop,
// across every model kind, worker count, and fault plan. The dependency rule
// (gate a round-(r+1) client on round r's dispersal iff it was in round r's
// cohort) plus pure per-(round, client) stream derivation make training order
// across rounds unobservable.
func TestPipelinedMatchesSequential(t *testing.T) {
	kinds := []models.Kind{models.KindMF, models.KindNeuMF, models.KindNGCF, models.KindLightGCN}
	workerCounts := []int{1, 2, 8}
	if testing.Short() {
		kinds = []models.Kind{models.KindNeuMF, models.KindLightGCN}
		workerCounts = []int{1, 8}
	}
	for _, kind := range kinds {
		for _, workers := range workerCounts {
			for _, faulted := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d/faulted=%v", kind, workers, faulted)
				t.Run(name, func(t *testing.T) {
					cfg := pipelineConfig(kind, workers, faulted)
					requireEqualHistories(t, name, runHistory(t, cfg), runSerialHistory(t, cfg))
				})
			}
		}
	}
}

// TestPipelinedFullParticipation pins the degenerate dependency graph: at
// ClientFraction 1.0 every round-(r+1) client was in cohort(r), so the free
// wave is empty and the pipeline must collapse to the serial loop — still
// bitwise-identical, with nothing overlapped.
func TestPipelinedFullParticipation(t *testing.T) {
	cfg := pipelineConfig(models.KindNeuMF, 4, true)
	cfg.ClientFraction = 1.0
	requireEqualHistories(t, "full-participation", runHistory(t, cfg), runSerialHistory(t, cfg))
}

// TestPipelinedWorkerInvariance pins that the pipelined schedule keeps the
// engine's original guarantee: one pipelined History, any worker count.
func TestPipelinedWorkerInvariance(t *testing.T) {
	base := runHistory(t, pipelineConfig(models.KindLightGCN, 1, true))
	for _, workers := range []int{2, 8} {
		h := runHistory(t, pipelineConfig(models.KindLightGCN, workers, true))
		requireEqualHistories(t, fmt.Sprintf("pipelined w%d vs w1", workers), base, h)
	}
}
