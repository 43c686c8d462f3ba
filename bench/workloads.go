package main

import (
	"fmt"
	"math"
	"time"

	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
)

// refSeconds is the run length (BENCHMARK.json's run_seconds) at which each
// workload runs its declared round count; --seconds scales the count, so the
// inputs stay a pure function of (--seed, --seconds).
const refSeconds = 20

// testFrac is the paper's 8:2 train/test split.
const testFrac = 0.2

// workload is one set of inputs. Everything it generates derives from the
// seed alone: the dataset through profile + seed, the protocol randomness
// (cohorts, initialisation, negative and privacy sampling) through
// fed.Config.Seed.
type workload struct {
	Name string

	// profile is the synthetic dataset shape. Networked workloads must name a
	// profile data.ProfileByName resolves: participants rebuild their split
	// from the name and the seed, no dataset bytes cross the wire.
	profile   data.Profile
	networked bool

	// panelParticipants restricts evaluation to the users the seed's cohorts
	// select at least once during the run. Under sparse partial participation
	// the idle majority's server-side representation is still its random
	// initialisation; ranking it measures the initialiser, and the handful of
	// hits it produces makes final_ndcg spread wider than any bound. It also
	// keeps the candidate cache proportional to the run, not the population.
	panelParticipants bool

	// rounds is the round count at refSeconds.
	rounds int

	// tune adjusts the paper's §IV-D defaults (fed.DefaultConfig with a
	// LightGCN server) for this workload.
	tune func(*fed.Config)

	// probeBudget is how long the traced run samples each kernel probe once
	// it has its minimum sample count.
	probeBudget time.Duration

	// ndcgFloor is the quality floor final_ndcg must clear (0 = none): a
	// refactor that stays self-consistent but stops learning fails here.
	ndcgFloor float64
}

// crossDevice is the MF-client / LightGCN-server configuration the three
// cross-device workloads share — a few cheap local epochs per selected client
// and one large-batch server epoch, the shape of the scalability profiles.
// The Adam step is 0.05, not the paper's 1e-3, and a client trains three
// epochs (six steps on about fifty samples), not one: with less, the uploaded
// scores never leave 0.5, the server learns nothing, final_ndcg is the
// random-ranking value and its seed-to-seed spread exceeds any bound. The
// step size changes no operation count; the extra epochs cost under 5% of
// the round.
func crossDevice(cfg *fed.Config) {
	cfg.ClientModel = models.KindMF
	cfg.Dim = 16
	cfg.LR = 0.05
	cfg.ClientEpochs = 3
	cfg.ClientBatch = 32
	cfg.ServerEpochs = 1
	cfg.ServerBatch = 8192
	cfg.LazyClients = true
}

// workloads lists the benchmark's four workloads; BENCHMARK.json records why
// each was chosen and bench/README.md which layers it stresses.
var workloads = withProbeBudget(200*time.Millisecond, []workload{
	{
		// The paper's protocol shape at ML-100K's density: every §IV-D
		// hyper-parameter except the Adam step, 1e-2 instead of 1e-3 so that
		// eight rounds reach the plateau — at 1e-3 the last round sits on the
		// steep part of the curve and final_ndcg spreads 40% across seeds.
		Name: "paper-full",
		profile: data.Profile{Name: "paper-full", NumUsers: 400, NumItems: 400, Interactions: 12000,
			ZipfExponent: 1.0, Clusters: 12, ClusterBias: 0.7, MinPerUser: 8},
		rounds: 8,
		tune: func(cfg *fed.Config) {
			cfg.LR = 0.01
			cfg.EvalEvery = 2
		},
		ndcgFloor: 0.2,
	},
	{
		Name: "sparse-250k",
		profile: data.Profile{Name: "sparse-250k", NumUsers: 250_000, NumItems: 8192, Interactions: 1_250_000,
			ZipfExponent: 1.05, Clusters: 64, ClusterBias: 0.7, MinPerUser: 3},
		panelParticipants: true,
		rounds:            14,
		tune: func(cfg *fed.Config) {
			crossDevice(cfg)
			cfg.ClientFraction = 0.008
		},
	},
	{
		Name: "rank-heavy",
		profile: data.Profile{Name: "rank-heavy", NumUsers: 20_000, NumItems: 4096, Interactions: 300_000,
			ZipfExponent: 1.05, Clusters: 40, ClusterBias: 0.7, MinPerUser: 5},
		rounds: 26,
		tune: func(cfg *fed.Config) {
			crossDevice(cfg)
			cfg.ClientFraction = 0.025
			cfg.EvalEvery = 1
		},
	},
	{
		Name:      "net-loopback",
		profile:   data.LargeScaleSmall,
		networked: true,
		rounds:    8,
		tune:      crossDevice,
	},
})

func withProbeBudget(d time.Duration, set []workload) []workload {
	for i := range set {
		set[i].probeBudget = d
	}
	return set
}

// smokeWorkloads are the same four shapes on shrunken populations, two
// rounds each — the -smoke mode and the tests run these.
func smokeWorkloads() []workload {
	out := make([]workload, len(workloads))
	for i, w := range workloads {
		w.rounds = 2
		w.ndcgFloor = 0
		w.probeBudget = 5 * time.Millisecond
		switch w.Name {
		case "paper-full":
			w.profile.NumUsers, w.profile.NumItems, w.profile.Interactions = 24, 60, 360
			w.profile.Clusters = 4
		case "sparse-250k":
			w.profile.NumUsers, w.profile.NumItems, w.profile.Interactions = 4000, 256, 20_000
			w.profile.Clusters = 8
		case "rank-heavy":
			w.profile.NumUsers, w.profile.NumItems, w.profile.Interactions = 800, 256, 12_000
			w.profile.Clusters = 8
		case "net-loopback":
			w.profile = data.Tiny
		}
		out[i] = w
	}
	return out
}

func workloadByName(set []workload, name string) (workload, error) {
	for _, w := range set {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// roundsFor scales the declared round count to the requested run length.
func (w workload) roundsFor(seconds float64) int {
	return max(2, int(math.Round(float64(w.rounds)*seconds/refSeconds)))
}

// config is the workload's protocol configuration for one seed. Workers,
// EvalWorkers and TrainWorkers stay 0, the product default (GOMAXPROCS).
func (w workload) config(seed uint64, rounds int) fed.Config {
	cfg := fed.DefaultConfig(models.KindLightGCN)
	cfg.Rounds = rounds
	cfg.Seed = seed
	w.tune(&cfg)
	return cfg
}

// cohort is the number of clients fed.RoundEngine.Select draws per round.
func cohort(cfg fed.Config, numUsers int) int {
	return max(1, int(cfg.ClientFraction*float64(numUsers)))
}

// world is a workload's generated inputs, ready to hand to a trainer or a
// coordinator.
type world struct {
	split *data.Split
	ev    *eval.Evaluator
	cfg   fed.Config
}

// generate builds the inputs from the seed: the streamed profile split 8:2,
// the evaluation panel trimmed, and the evaluator's candidate cache. rec (nil
// in the measured run) times the two halves under parent.
func (w workload) generate(seed uint64, rounds int, rec *recorder, parent int) (*world, error) {
	cfg := w.config(seed, rounds)
	id := rec.begin("data.split", parent, -1)
	sp := data.StreamSplit(w.profile, seed, testFrac)
	if w.panelParticipants {
		// Cohorts are a pure function of (seed, round), so the run's
		// participants are known before it starts.
		engine, err := fed.NewRoundEngine(sp.NumUsers, sp.NumItems, cfg)
		if err != nil {
			return nil, err
		}
		selected := make([]bool, sp.NumUsers)
		for r := 0; r < rounds; r++ {
			for _, u := range engine.Select(r) {
				selected[u] = true
			}
		}
		for u, in := range selected {
			if !in {
				sp.Test[u] = nil
			}
		}
	}
	rec.end(id)

	id = rec.begin("eval.build", parent, -1)
	ev := eval.NewEvaluator(sp)
	rec.end(id)
	return &world{split: sp, ev: ev, cfg: cfg}, nil
}
