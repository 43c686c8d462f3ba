package fed

import (
	"slices"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// storeTestServer builds a bare server for absorb/graph/dispersal
// micro-tests.
func storeTestServer(tb testing.TB, numUsers, numItems int, mutate func(*Config)) *Server {
	tb.Helper()
	cfg := fastConfig(models.KindMF)
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		tb.Fatal(err)
	}
	sv, err := newServer(numUsers, numItems, &cfg, rng.New(1).Derive("store-test"))
	if err != nil {
		tb.Fatal(err)
	}
	return sv
}

// makeUpload builds one user's upload with deterministic items/scores: m
// distinct items in random order, as CloseRound's contract requires. Scores
// sit on a grid of twentieths, so uploads hold ties and scores exactly at the
// graph tests' thresholds (0.3, 0.4) — the cases where ">=" and a stable rank
// order decide which edges exist.
func makeUpload(u, m, numItems int, s *rng.Stream) []comm.Prediction {
	up := make([]comm.Prediction, m)
	for j, v := range s.SampleInts(numItems, m) {
		up[j] = comm.Prediction{User: u, Item: v, Score: float64(s.Intn(21)) / 20}
	}
	return up
}

// TestUploadStoreInvariance pins Eq. 9's exclusion set on live protocol
// traffic: for every server model kind and worker count, under a fault plan
// that drops and truncates uploads, every responder's D̃ᵢ — payload and
// decoded values — equals what the scalar dispersal oracle
// (disperse_oracle_test.go) builds, through the same wire round trip, from the
// record's latest view of that user.
func TestUploadStoreInvariance(t *testing.T) {
	kinds := []models.Kind{models.KindMF, models.KindNeuMF, models.KindNGCF, models.KindLightGCN}
	if testing.Short() {
		kinds = []models.Kind{models.KindNeuMF, models.KindLightGCN}
	}
	sp := tinySplit(t)
	for _, server := range kinds {
		for _, workers := range []int{1, 2, 8} {
			cfg := fastConfig(server)
			cfg.Rounds = 3
			cfg.ClientFraction = 0.6
			cfg.Faults = FaultPlan{DropoutRate: 0.2, TruncateRate: 0.3}
			cfg.Workers = workers
			tr, err := NewTrainer(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sv := tr.Server()
			record := newMapStoreOracle()
			scratch := &disperseScratch{}
			for round := 0; round < cfg.Rounds; round++ {
				obs := observeRound(tr, round, nil, nil)
				record.SetOutcomes(obs.outcomes)
				if w, ok := sv.model.(models.Warmer); ok {
					w.WarmScoring()
				}
				plan := sv.buildDispersalPlan()
				for _, d := range obs.dispersals {
					tgt := disperseTarget{id: d.ID, excl: uploadItems(sp.NumItems, record.View(d.ID))}
					var ds *rng.Stream
					if disperseNeedsStreams(sv.cfg) {
						ds = tr.engine.root.DeriveN("disperse", round).DeriveN("client", d.ID)
					}
					want := sv.disperse(tgt, ds, plan, scratch)
					comm.RoundScores(want)
					if !slices.Equal(d.Preds, want) {
						t.Fatalf("%s/workers=%d round %d user %d: dispersed\n  %v\nthe oracle over the latest upload says\n  %v",
							server, workers, round, d.ID, d.Preds, want)
					}
				}
			}
		}
	}
}

// TestLazyClientsHistoryInvariance pins that construction order cannot change
// a bit: everything a client owns derives purely from (config, split, id), so
// a trainer whose clients were all built in id order before round 0 must
// reproduce, bit for bit, the History of one that builds each client in the
// round that first selects it — at half participation, so that the lazy
// trainer's later clients are built rounds after the first.
func TestLazyClientsHistoryInvariance(t *testing.T) {
	cfg := fastConfig(models.KindLightGCN)
	cfg.Rounds = 3
	cfg.EvalEvery = 1
	cfg.ClientFraction = 0.5
	eager, err := NewTrainer(tinySplit(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eager.Clients()
	h, err := eager.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualHistories(t, "built up front vs on first participation", h, runHistory(t, cfg))
}

// storeAllocFixture builds a warmed LightGCN server + batch for the
// steady-state allocation pins: an absorb and a graph rebuild size every
// scratch buffer for the next same-shape batch, so the next calls must run
// clean.
func storeAllocFixture(tb testing.TB) (*Server, [][]comm.Prediction) {
	tb.Helper()
	const numUsers, numItems = 600, 150
	sv := storeTestServer(tb, numUsers, numItems, func(c *Config) {
		c.ServerModel = models.KindLightGCN
		c.GraphThreshold = 0.4
	})
	s := rng.New(9).Derive("alloc")
	uploads := make([][]comm.Prediction, 0, 200)
	for _, u := range s.SampleInts(numUsers, 200) {
		uploads = append(uploads, makeUpload(u, 4+s.Intn(12), numItems, s))
	}
	sv.absorb(uploads)
	sv.rebuildGraph(uploads, 1)
	return sv, uploads
}

// TestAbsorbSteadyStateAllocs pins the confidence counters' promise: absorbing
// a round allocates nothing.
func TestAbsorbSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	sv, uploads := storeAllocFixture(t)
	if allocs := testing.AllocsPerRun(50, func() { sv.absorb(uploads) }); allocs != 0 {
		t.Fatalf("steady-state absorb allocates %.1f times per round, want 0", allocs)
	}
}

// TestCollectEdgesSteadyStateAllocs pins the graph staging over a round's
// uploads (stageUploads, the pass rebuildGraph runs before its commit) at
// zero steady-state allocations.
func TestCollectEdgesSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	t.Run("threshold", func(t *testing.T) {
		sv, uploads := storeAllocFixture(t)
		if allocs := testing.AllocsPerRun(50, func() { sv.stageUploads(uploads) }); allocs != 0 {
			t.Fatalf("steady-state stageUploads allocates %.1f times per call, want 0", allocs)
		}
	})
}

// BenchmarkAbsorb measures one steady-state absorb of a 200-client round.
// -benchmem must report 0 B/op, 0 allocs/op — CI's allocation-regression pin.
func BenchmarkAbsorb(b *testing.B) {
	sv, uploads := storeAllocFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.absorb(uploads)
	}
}

// BenchmarkCollectEdges measures the steady-state graph staging of a
// 200-client round. -benchmem must report 0 B/op, 0 allocs/op.
func BenchmarkCollectEdges(b *testing.B) {
	sv, uploads := storeAllocFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.stageUploads(uploads)
	}
}
