package fed

import (
	"math"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/models"
	"ptffedrec/internal/par"
	"ptffedrec/internal/tensor"
)

// runHistory executes a full training run and returns its trace.
func runHistory(t *testing.T, cfg Config) *History {
	t.Helper()
	tr, err := NewTrainer(tinySplit(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// requireEqualHistories compares two traces with bitwise float equality —
// the parallel round engine's contract.
func requireEqualHistories(t *testing.T, label string, a, b *History) {
	t.Helper()
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("%s: round counts differ: %d vs %d", label, len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("%s: round %d differs:\n  %+v\n  %+v", label, i, a.Rounds[i], b.Rounds[i])
		}
	}
	if a.Final != b.Final || a.MeanAttackF1 != b.MeanAttackF1 {
		t.Fatalf("%s: final results differ: %+v/%v vs %+v/%v",
			label, a.Final, a.MeanAttackF1, b.Final, b.MeanAttackF1)
	}
}

// TestHistoryInvariantAcrossWorkerCounts pins the round engine's guarantee:
// the entire History — per-round losses, attack F1, wire bytes, and final
// metrics — is identical whether the round runs serially or on a worker
// pool. This covers the parallel client training, the sharded server train,
// and the parallel dispersal (including its per-client stream derivation).
func TestHistoryInvariantAcrossWorkerCounts(t *testing.T) {
	kinds := []models.Kind{models.KindNeuMF, models.KindLightGCN}
	if testing.Short() {
		kinds = kinds[:1]
	}
	for _, server := range kinds {
		cfg := fastConfig(server)
		cfg.Rounds = 2
		cfg.EvalEvery = 1

		cfg.Workers = 1
		serial := runHistory(t, cfg)
		for _, workers := range []int{2, 8} {
			cfg.Workers = workers
			requireEqualHistories(t, string(server), serial, runHistory(t, cfg))
		}
	}
}

// TestHistoryInvariantRandomDispersal exercises the ablation arms whose
// dispersal draws random items: the per-(round, client) stream derivation
// must make those draws independent of worker count and visit order.
func TestHistoryInvariantRandomDispersal(t *testing.T) {
	modes := []DisperseMode{DisperseNoConf, DisperseNoHard, DisperseAllRandom}
	if testing.Short() {
		modes = modes[:1]
	}
	for _, mode := range modes {
		cfg := fastConfig(models.KindNeuMF)
		cfg.Rounds = 2
		cfg.Disperse = mode

		cfg.Workers = 1
		serial := runHistory(t, cfg)
		cfg.Workers = 8
		requireEqualHistories(t, string(mode), serial, runHistory(t, cfg))
	}
}

// TestHistoryInvariantWithFaults keeps the fault-injection path inside the
// worker-count contract: dropouts and truncations derive from per-client
// streams, so the same clients fail no matter how the pool is sized.
func TestHistoryInvariantWithFaults(t *testing.T) {
	cfg := fastConfig(models.KindNeuMF)
	cfg.Rounds = 2
	cfg.Faults = FaultPlan{DropoutRate: 0.3, TruncateRate: 0.3}

	cfg.Workers = 1
	serial := runHistory(t, cfg)
	cfg.Workers = 8
	requireEqualHistories(t, "faults", serial, runHistory(t, cfg))
}

// runHistoryWithLogits executes a full run and also scores the hidden server
// model's whole users × items logit block.
func runHistoryWithLogits(t *testing.T, cfg Config) (*History, *tensor.Matrix) {
	t.Helper()
	tr, err := NewTrainer(tinySplit(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	sv := tr.Server()
	users, items := make([]int, sv.numUsers), make([]int, sv.numItems)
	for u := range users {
		users[u] = u
	}
	for v := range items {
		items[v] = v
	}
	block := tensor.New(len(users), len(items))
	sv.Model().ScoreUsersBlockLogitsInto(block, users, items)
	return h, block
}

// TestHistoryInvariantAcrossTrainWorkers pins the gradient workspace engine's
// guarantee end to end, for every server model kind: the entire History AND
// the hidden model's final logit for every user and item are
// bitwise-identical whether the server model trains on 1, 2 or 8 workers
// (models.Config.TrainWorkers, which the server sets from Config.Workers).
func TestHistoryInvariantAcrossTrainWorkers(t *testing.T) {
	kinds := []models.Kind{models.KindMF, models.KindNeuMF, models.KindNGCF, models.KindLightGCN}
	if testing.Short() {
		kinds = []models.Kind{models.KindNeuMF, models.KindLightGCN}
	}
	for _, server := range kinds {
		cfg := fastConfig(server)
		cfg.Rounds = 2
		cfg.EvalEvery = 1
		// A batch size below the trained-sample count would already exercise
		// the engine, but shrink it to guarantee multiple chunks per batch.
		cfg.ServerBatch = 512

		cfg.Workers = 1
		serial, serialLogits := runHistoryWithLogits(t, cfg)
		for _, workers := range []int{2, 8} {
			cfg.Workers = workers
			h, logits := runHistoryWithLogits(t, cfg)
			requireEqualHistories(t, string(server), serial, h)
			for i, want := range serialLogits.Data {
				if got := logits.Data[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Workers=%d logit (%d, %d) = %v, Workers=1 %v",
						server, workers, i/logits.Cols, i%logits.Cols, got, want)
				}
			}
		}
	}
}

// TestServerTrainsOnTheRunsWorkers pins the one-knob wiring: the hidden
// model's intra-batch pool is Config.Workers resolved the way every other
// pool resolves it, so `-workers 1` is serial end to end (a separate
// TrainWorkers knob once left server SGD sharded over every core).
func TestServerTrainsOnTheRunsWorkers(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		cfg := fastConfig(models.KindLightGCN)
		cfg.Workers = workers
		if got, want := serverModelConfig(8, 8, &cfg).TrainWorkers, par.Workers(workers); got != want {
			t.Fatalf("Workers=%d: server model TrainWorkers = %d, want %d", workers, got, want)
		}
	}
}

// TestPhaseSecondsAccumulate checks the per-phase timers cover the round,
// without ever entering the deterministic RoundStats.
func TestPhaseSecondsAccumulate(t *testing.T) {
	cfg := fastConfig(models.KindLightGCN)
	cfg.Rounds = 1
	tr, err := NewTrainer(tinySplit(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunRound(0)
	ph := tr.PhaseSeconds()
	if ph.ClientTrain <= 0 || ph.ServerTrain <= 0 || ph.Disperse <= 0 {
		t.Fatalf("missing phase timings: %+v", ph)
	}
	if ph.GraphBuild <= 0 {
		t.Fatalf("graph server model recorded no graph-build time: %+v", ph)
	}
}

// TestTruncatedUploadsHonourWireCodec pins the fault path's byte count: a
// truncated upload is charged the wire size of the prefix that reached the
// server, 12 bytes a triple, not that of the full upload.
func TestTruncatedUploadsHonourWireCodec(t *testing.T) {
	cfg := fastConfig(models.KindNeuMF)
	cfg.Rounds = 1
	cfg.Faults = FaultPlan{TruncateRate: 1.0}
	tr, err := NewTrainer(tinySplit(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := observeRound(tr, 0, nil, nil)
	rs := obs.stats
	var preds int
	for _, o := range obs.outcomes {
		preds += len(o.Upload)
	}
	if preds == 0 {
		t.Fatal("no uploads reached the server")
	}
	if want := int64(comm.PredictionWireSize * preds); rs.UploadBytes != want {
		t.Fatalf("UploadBytes = %d, want %d (12 bytes × %d triples)", rs.UploadBytes, want, preds)
	}
}
