package fed

import (
	"fmt"
	"slices"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// storeTestServer builds a bare server for store/graph micro-tests.
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

// makeUpload builds one user's upload with deterministic items/scores. Scores
// sit on a grid of twentieths, so uploads hold ties and scores exactly at the
// graph tests' thresholds (0.3, 0.4) — the cases where ">=" and a stable rank
// order decide which edges exist.
func makeUpload(u, m, numItems int, s *rng.Stream) []comm.Prediction {
	up := make([]comm.Prediction, m)
	for j := range up {
		up[j] = comm.Prediction{User: u, Item: s.Intn(numItems), Score: float64(s.Intn(21)) / 20}
	}
	return up
}

// TestFlatUploadStoreBasic drives one store through the region life cycle:
// first insert, in-place rewrite, region abandonment on growth, and the
// compaction a slow-growth pattern forces — checking views, user order and
// counts at every step.
func TestFlatUploadStoreBasic(t *testing.T) {
	const numUsers, numItems = 100, 50
	st := newFlatUploadStore(numUsers)
	s := rng.New(3).Derive("basic")

	if st.Count() != 0 || st.View(7) != nil || len(st.Users(nil)) != 0 {
		t.Fatal("fresh store is not empty")
	}

	up7 := makeUpload(7, 8, numItems, s)
	up90 := makeUpload(90, 5, numItems, s)
	// Batch order must not matter for the final state; users span two shards
	// (stride 64 at 100 users).
	st.SetBatch([][]comm.Prediction{up90, nil, up7}, 1)
	if st.Count() != 2 {
		t.Fatalf("Count = %d, want 2 (empty upload must be ignored)", st.Count())
	}
	if got := st.Users(nil); len(got) != 2 || got[0] != 7 || got[1] != 90 {
		t.Fatalf("Users = %v, want [7 90]", got)
	}
	requirePredsEqual(t, "initial view", st.View(7), up7)

	// Same-length rewrite lands in place: the region offset must not move.
	off7 := st.shards[7>>st.strideBits].off[7]
	up7b := makeUpload(7, 8, numItems, s)
	st.SetBatch([][]comm.Prediction{up7b}, 1)
	if st.shards[7>>st.strideBits].off[7] != off7 {
		t.Fatal("same-length rewrite relocated the region")
	}
	requirePredsEqual(t, "in-place rewrite", st.View(7), up7b)
	requirePredsEqual(t, "untouched user", st.View(90), up90)

	// Slow growth: each upload slightly exceeds the previous region's
	// capacity, abandoning it. Abandoned capacity accumulates faster than the
	// newest reservation grows, so compaction must trigger along the way.
	compacted := false
	for m := 10; m <= 22; m += 2 {
		upg := makeUpload(7, m, numItems, s)
		st.SetBatch([][]comm.Prediction{upg}, 1)
		requirePredsEqual(t, fmt.Sprintf("growth to %d", m), st.View(7), upg)
		requirePredsEqual(t, "other shard survives growth", st.View(90), up90)
		if st.shards[7>>st.strideBits].dead == 0 {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("slow-growth pattern never compacted the shard")
	}
	if st.Count() != 2 {
		t.Fatalf("Count = %d after rewrites, want 2", st.Count())
	}
	if st.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes must be positive for a non-empty store")
	}
}

func requirePredsEqual(t *testing.T, label string, got, want []comm.Prediction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pred %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestFlatUploadStoreMatchesMap runs the flat store and the map oracle
// (uploadstore_oracle_test.go) through many rounds of randomized batches —
// lengths jittering, shrinking and growing to force both in-place rewrites
// and abandon/compact cycles — and requires identical observable state
// (count, user order, every view) after every round.
func TestFlatUploadStoreMatchesMap(t *testing.T) {
	const numUsers, numItems, rounds = 700, 90, 80
	flat := newFlatUploadStore(numUsers)
	mp := newMapStoreOracle()
	s := rng.New(11).Derive("equiv")

	for round := 0; round < rounds; round++ {
		n := 1 + s.Intn(60)
		users := s.SampleInts(numUsers, n)
		uploads := make([][]comm.Prediction, 0, n+1)
		for _, u := range users {
			// Length regime swings by round: small, large, or wild — the
			// swings are what exercise region reuse vs abandonment.
			var m int
			switch round % 3 {
			case 0:
				m = 1 + s.Intn(6)
			case 1:
				m = 20 + s.Intn(20)
			default:
				m = 1 + s.Intn(40)
			}
			uploads = append(uploads, makeUpload(u, m, numItems, s))
		}
		uploads = append(uploads, nil) // empty uploads must be ignored
		flat.SetBatch(uploads, 1+round%4)
		mp.SetBatch(uploads, 1)

		if flat.Count() != mp.Count() {
			t.Fatalf("round %d: Count %d vs map %d", round, flat.Count(), mp.Count())
		}
		fu, mu := flat.Users(nil), mp.Users(nil)
		if len(fu) != len(mu) {
			t.Fatalf("round %d: user counts %d vs %d", round, len(fu), len(mu))
		}
		for i := range fu {
			if fu[i] != mu[i] {
				t.Fatalf("round %d: user order diverges at %d: %d vs %d", round, i, fu[i], mu[i])
			}
			requirePredsEqual(t, fmt.Sprintf("round %d user %d", round, fu[i]),
				flat.View(fu[i]), mp.View(fu[i]))
		}
	}
}

// TestUploadStoreInvariance pins the flat store on live protocol traffic: for
// every server model kind and worker count, every batch a training run's
// rounds absorb — faulted, so truncated uploads and dropped clients are in
// it — is mirrored into the map oracle, and after every round the two stores
// must agree on the user list and on every user's view.
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
			oracle := newMapStoreOracle()
			for round := 0; round < cfg.Rounds; round++ {
				obs := observeRound(tr, round, nil, nil)
				var uploads [][]comm.Prediction
				for _, o := range obs.outcomes {
					if !o.Dropped {
						uploads = append(uploads, o.Upload)
					}
				}
				oracle.SetBatch(uploads, 1)
				label := fmt.Sprintf("%s/workers=%d round %d", server, workers, round)
				users := tr.server.store.Users(nil)
				if want := oracle.Users(nil); !slices.Equal(users, want) || tr.server.store.Count() != oracle.Count() {
					t.Fatalf("%s: stored users %v, oracle %v", label, users, want)
				}
				for u := 0; u < sp.NumUsers; u++ {
					requirePredsEqual(t, fmt.Sprintf("%s user %d", label, u), tr.server.store.View(u), oracle.View(u))
				}
			}
		}
	}
}

// TestLazyClientsHistoryInvariance pins on-demand client construction:
// everything a client owns derives purely from (config, split, id), so a
// lazily-built fleet must reproduce the eager fleet's History bit for bit.
func TestLazyClientsHistoryInvariance(t *testing.T) {
	cfg := fastConfig(models.KindLightGCN)
	cfg.Rounds = 2
	cfg.EvalEvery = 1
	eager := runHistory(t, cfg)
	cfg.LazyClients = true
	requireEqualHistories(t, "lazy-clients", eager, runHistory(t, cfg))
}

// storeAllocFixture builds a warmed server + batch for the steady-state
// allocation pins: two absorbs make every region's capacity fit the next
// same-shape batch, so the third absorb and onwards must run clean.
func storeAllocFixture(tb testing.TB, topFrac float64) (*Server, [][]comm.Prediction) {
	tb.Helper()
	const numUsers, numItems = 600, 150
	sv := storeTestServer(tb, numUsers, numItems, func(c *Config) {
		c.GraphTopFrac = topFrac
		if topFrac == 0 {
			c.GraphThreshold = 0.4
		}
	})
	s := rng.New(9).Derive("alloc")
	uploads := make([][]comm.Prediction, 0, 200)
	for _, u := range s.SampleInts(numUsers, 200) {
		uploads = append(uploads, makeUpload(u, 4+s.Intn(12), numItems, s))
	}
	sv.absorb(uploads, 1)
	sv.absorb(uploads, 1)
	sv.selectEdges(uploads, 1)
	return sv, uploads
}

// TestAbsorbSteadyStateAllocs pins the flat store's core promise: once
// regions exist, absorbing a round allocates nothing — no map growth, no
// per-user slices, no routing garbage.
func TestAbsorbSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	sv, uploads := storeAllocFixture(t, 0)
	if allocs := testing.AllocsPerRun(50, func() { sv.absorb(uploads, 1) }); allocs != 0 {
		t.Fatalf("steady-state absorb allocates %.1f times per round, want 0", allocs)
	}
}

// TestCollectEdgesSteadyStateAllocs pins the serial graph edge selection
// over a round's uploads (selectEdges, the pass rebuildGraph runs) at zero
// steady-state allocations for both soft-positive rules (threshold scan and
// top-fraction stable sort).
func TestCollectEdgesSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, tc := range []struct {
		name    string
		topFrac float64
	}{{"threshold", 0}, {"topfrac", 0.5}} {
		t.Run(tc.name, func(t *testing.T) {
			sv, uploads := storeAllocFixture(t, tc.topFrac)
			if allocs := testing.AllocsPerRun(50, func() { sv.selectEdges(uploads, 1) }); allocs != 0 {
				t.Fatalf("steady-state selectEdges allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// BenchmarkAbsorb measures one steady-state absorb of a 200-client round.
// -benchmem must report 0 B/op, 0 allocs/op — CI's allocation-regression pin.
func BenchmarkAbsorb(b *testing.B) {
	sv, uploads := storeAllocFixture(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.absorb(uploads, 1)
	}
}

// BenchmarkCollectEdges measures the steady-state serial edge selection over
// a 200-client round. -benchmem must report 0 B/op, 0 allocs/op.
func BenchmarkCollectEdges(b *testing.B) {
	sv, uploads := storeAllocFixture(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.selectEdges(uploads, 1)
	}
}
