package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
)

// ScalabilityRow records one worker count's timings on the large-scale
// profile. Speedups are relative to the workers=1 row. The per-phase columns
// break the round down so speedup is attributable to client training, the
// graph/CSR build or server SGD, which all ride Config.Workers.
// Columns a mode does not measure (evaluation and speedups in the memory
// profile) are omitted from the JSON rather than written as 0.
type ScalabilityRow struct {
	Workers      int     `json:"workers"`
	RoundSecs    float64 `json:"round_secs"`     // mean wall-clock per global round
	RoundsPerSec float64 `json:"rounds_per_sec"` // 1/RoundSecs
	RoundSpeedup float64 `json:"round_speedup,omitempty"`
	EvalSecs     float64 `json:"eval_secs,omitempty"` // one full eval pass: min of three, a forced GC before each
	EvalSpeedup  float64 `json:"eval_speedup,omitempty"`
	Recall       float64 `json:"recall,omitempty"` // must match across rows
	NDCG         float64 `json:"ndcg,omitempty"`   // must match across rows

	// Per-phase mean seconds per round, and speedups vs workers=1 for the two
	// server-side hot paths the gradient workspace engine and the parallel
	// CSR build attack.
	ClientSecs         float64 `json:"client_secs"`
	AbsorbSecs         float64 `json:"absorb_secs"`
	GraphSecs          float64 `json:"graph_secs"`
	ServerTrainSecs    float64 `json:"server_train_secs"`
	DisperseSecs       float64 `json:"disperse_secs"`
	ServerTrainSpeedup float64 `json:"server_train_speedup,omitempty"`
	GraphSpeedup       float64 `json:"graph_speedup,omitempty"`

	// Memory accounting for this row's trainer. PeakHeapBytes is the largest
	// live heap observed at phase boundaries (post-GC samples, so it tracks
	// retained state, not allocator slack). GraphEngineBytes is the
	// graph engine's footprint from its own accounting (each user's kept
	// edges, degree vectors, staging and assembly scratch).
	PeakHeapBytes    uint64 `json:"peak_heap_bytes"`
	GraphEngineBytes int64  `json:"graph_engine_bytes"`
}

// ScalabilityResult is the scalability experiment's report: the parallel
// round engine and evaluator timed at increasing worker counts on the
// large-scale profile, with a determinism cross-check — or, for huge
// profiles, one memory-profile run.
type ScalabilityResult struct {
	Profile    string `json:"profile"`
	Users      int    `json:"users"`
	Items      int    `json:"items"`
	Rounds     int    `json:"rounds"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GitSHA     string `json:"git_sha,omitempty"`

	Rows          []ScalabilityRow `json:"rows"`
	Deterministic bool             `json:"deterministic"` // identical history+metrics across worker counts

	// MemoryProfile marks the huge-profile mode (NumUsers ≥
	// memoryProfileUsers): a streamed split, lazy clients, sampled
	// participation and no evaluation — a memory-scalability measurement
	// with a single row, rather than a worker sweep.
	MemoryProfile bool `json:"memory_profile,omitempty"`
}

// memoryProfileUsers is the user count at which RunScalability switches to
// the memory-profile mode: past it, materialising the dataset or eager
// clients would dominate — or exceed — the very footprint being measured.
const memoryProfileUsers = 200_000

// heapSampler tracks the largest live heap seen at sampling points. Samples
// land right after forced GCs or phase boundaries, so the peak reflects
// retained state rather than transient allocator slack.
type heapSampler struct {
	peak uint64
	ms   runtime.MemStats
}

func (h *heapSampler) sample() {
	runtime.ReadMemStats(&h.ms)
	if h.ms.HeapAlloc > h.peak {
		h.peak = h.ms.HeapAlloc
	}
}

// scalabilityWorkerCounts returns the worker counts to sweep: doubling steps
// up to GOMAXPROCS, always starting at 1 and, when the host is single-core,
// still including 2 so the report exercises worker-count invariance.
func scalabilityWorkerCounts() []int {
	maxProcs := runtime.GOMAXPROCS(0)
	counts := []int{1}
	for w := 2; w <= maxProcs; w *= 2 {
		counts = append(counts, w)
	}
	if counts[len(counts)-1] != maxProcs && maxProcs > 1 {
		counts = append(counts, maxProcs)
	}
	if maxProcs == 1 {
		counts = append(counts, 2)
	}
	return counts
}

// scalabilityConfig is the workload both modes train. MF clients keep
// per-client state tiny (lazy embedding rows only), which is what makes tens
// of thousands of in-process clients feasible. The server runs LightGCN so
// the run exercises every parallel server path: the per-round graph/CSR
// rebuild, the sharded SpMM propagation, and the gradient workspace engine. A
// large server batch keeps the propagation count per round bounded (one
// forward cache per optimizer step).
func scalabilityConfig(seed uint64) fed.Config {
	cfg := fed.DefaultConfig(models.KindLightGCN)
	cfg.ClientModel = models.KindMF
	cfg.Seed = seed
	cfg.Dim = 16
	cfg.ClientEpochs = 1
	cfg.ServerEpochs = 1
	cfg.ClientBatch = 32
	cfg.ServerBatch = 8192
	return cfg
}

// newScalabilityResult stamps a report with the host and commit it ran on.
// Call it before the run builds its state: asking git forks the process, and
// forking a multi-gigabyte heap slows the rounds timed right after it.
func newScalabilityResult(p data.Profile, rounds int) *ScalabilityResult {
	return &ScalabilityResult{
		Profile:       p.Name,
		Users:         p.NumUsers,
		Items:         p.NumItems,
		Rounds:        rounds,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GitSHA:        gitSHA(),
		Deterministic: true,
	}
}

// cpuModel reads the host CPU's model name ("" where /proc/cpuinfo has none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// gitSHA names the checkout's commit, with "-dirty" appended when the working
// tree differs from it ("" outside a git checkout).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		sha += "-dirty"
	}
	return sha
}

// measuredRow runs every round of one trainer serially, sampling the heap
// between rounds, and folds the timings and footprints both modes report into
// a row; the caller adds what only it measures.
func measuredRow(tr *fed.Trainer, cfg fed.Config, hs *heapSampler) (ScalabilityRow, []fed.RoundStats) {
	rounds := make([]fed.RoundStats, 0, cfg.Rounds)
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		rounds = append(rounds, tr.RunRound(round))
		hs.sample()
	}
	perRound := 1 / float64(cfg.Rounds)
	phases := tr.PhaseSeconds()
	row := ScalabilityRow{
		Workers:          cfg.Workers,
		RoundSecs:        time.Since(start).Seconds() * perRound,
		ClientSecs:       phases.ClientTrain * perRound,
		AbsorbSecs:       phases.Absorb * perRound,
		GraphSecs:        phases.GraphBuild * perRound,
		ServerTrainSecs:  phases.ServerTrain * perRound,
		DisperseSecs:     phases.Disperse * perRound,
		GraphEngineBytes: tr.Server().GraphEngineBytes(),
	}
	row.RoundsPerSec = speedup(1, row.RoundSecs)
	row.PeakHeapBytes = hs.peak
	return row, rounds
}

// RunScalability times the parallel round engine and the parallel evaluator
// at increasing worker counts on the large-scale profile (50k users at full
// scale). Every sweep point re-runs the same seeded training, so the rows
// double as a determinism check: Recall/NDCG and the per-round history must
// be identical for every worker count.
func RunScalability(o Options) (*ScalabilityResult, error) {
	p := data.LargeScaleSmall
	if o.Scale == ScaleFull {
		p = data.LargeScale
	}
	if len(o.ProfilesOverride) > 0 {
		p = o.ProfilesOverride[0]
	}
	if p.NumUsers >= memoryProfileUsers {
		return runScalabilityMemory(o, p)
	}
	cfg := scalabilityConfig(o.Seed)
	cfg.Rounds = 3
	if o.Quick {
		cfg.Rounds = 2
	}
	if o.Scale == ScaleFull {
		// 50k clients per round would dominate the sweep; a 10% sample per
		// round keeps full-scale sweeps tractable while every client still
		// exists (the evaluator always covers all 50k users).
		cfg.ClientFraction = 0.1
	}
	res := newScalabilityResult(p, cfg.Rounds)
	sp := o.split(p)

	evaluator := eval.NewEvaluator(sp) // ranks every row's trained model

	// Untimed warmup: one round + eval on a throwaway trainer, so the timed
	// sweep doesn't charge the first row for heap growth and page-cache
	// warmup (visible as a large workers=1 outlier otherwise).
	{
		wcfg := cfg
		wcfg.Rounds = 1
		warm, err := fed.NewTrainer(sp, wcfg)
		if err != nil {
			return nil, fmt.Errorf("scalability: %w", err)
		}
		warm.RunRound(0)
		warm.EvaluateServer()
	}

	var refRounds []fed.RoundStats
	for _, workers := range scalabilityWorkerCounts() {
		o.logf("scalability: workers=%d\n", workers)
		wcfg := cfg
		wcfg.Workers = workers
		tr, err := fed.NewTrainer(sp, wcfg)
		if err != nil {
			return nil, fmt.Errorf("scalability: %w", err)
		}
		// Time the round engine and the evaluator separately so the report
		// attributes speedup to the right path. A forced GC before each timed
		// segment keeps one segment's garbage from being collected on a later
		// segment's clock.
		runtime.GC()
		var hs heapSampler
		row, rounds := measuredRow(tr, wcfg, &hs)

		// Evaluation on the trained state: min of three passes, a forced GC
		// before each. A single pass drifts with the process's allocator
		// state enough to fake a worker-scaling regression on small hosts.
		var ev eval.Result
		row.EvalSecs = math.Inf(1)
		for g := 0; g < 3; g++ {
			runtime.GC()
			start := time.Now()
			pass := evaluator.Rank(tr.Server().Model(), wcfg.EvalK, workers)
			row.EvalSecs = math.Min(row.EvalSecs, time.Since(start).Seconds())
			if g == 0 {
				ev = pass
			} else if pass != ev {
				res.Deterministic = false
			}
		}
		row.Recall, row.NDCG = ev.Recall, ev.NDCG

		if len(res.Rows) == 0 {
			refRounds = rounds
			row.RoundSpeedup, row.EvalSpeedup = 1, 1
			row.ServerTrainSpeedup, row.GraphSpeedup = 1, 1
		} else {
			base := res.Rows[0]
			row.RoundSpeedup = speedup(base.RoundSecs, row.RoundSecs)
			row.EvalSpeedup = speedup(base.EvalSecs, row.EvalSecs)
			row.ServerTrainSpeedup = speedup(base.ServerTrainSecs, row.ServerTrainSecs)
			row.GraphSpeedup = speedup(base.GraphSecs, row.GraphSecs)
			// Bitwise float equality is intentional: the round engine promises
			// identical results for every worker count.
			if ev.Recall != base.Recall || ev.NDCG != base.NDCG || !slices.Equal(refRounds, rounds) {
				res.Deterministic = false
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// speedup is base/secs, or 0 (an omitted column) when the clock saw nothing.
func speedup(base, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return base / secs
}

// runScalabilityMemory is the huge-profile arm of the scalability experiment:
// a memory-scalability measurement at a user count (Huge1M's million users)
// where the ordinary sweep's materialised dataset and eager clients are off
// the table. The split streams straight from the generator, clients build
// lazily on first participation, each round samples a few thousand
// participants, and nothing is evaluated — so the retained state under
// measurement is the per-user structures: the materialised clients and the
// graph engine's kept edge sets.
func runScalabilityMemory(o Options, p data.Profile) (*ScalabilityResult, error) {
	// Same model pairing as the sweep, with the per-round participant count
	// pinned near the full-scale sweep's (~5k clients) so round cost stays
	// bounded while the graph still accumulates fresh users every round.
	cfg := scalabilityConfig(o.Seed)
	cfg.Rounds = 2
	if o.Rounds > 0 {
		cfg.Rounds = o.Rounds
	}
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.ClientFraction = math.Min(1, 5000/float64(p.NumUsers))
	res := newScalabilityResult(p, cfg.Rounds)
	res.MemoryProfile = true

	var hs heapSampler
	o.logf("scalability: memory profile %s (%d users, streamed split)\n", p.Name, p.NumUsers)
	sp := data.StreamSplit(p, o.Seed, 0.2)
	runtime.GC()
	hs.sample()
	tr, err := fed.NewTrainer(sp, cfg)
	if err != nil {
		return nil, fmt.Errorf("scalability: %w", err)
	}
	row, _ := measuredRow(tr, cfg, &hs)
	res.Rows = append(res.Rows, row)
	return res, nil
}

// Print renders the sweep (or, for huge profiles, the memory profile).
func (r *ScalabilityResult) Print(w io.Writer) {
	size := func(b int64) string { return comm.FormatBytes(float64(b)) }
	if r.MemoryProfile {
		row := r.Rows[0]
		fmt.Fprintf(w, "Scalability (memory profile): %s (%d users × %d items), %d rounds, GOMAXPROCS=%d\n",
			r.Profile, r.Users, r.Items, r.Rounds, r.GOMAXPROCS)
		fmt.Fprintf(w, "  round-secs=%.3f  client=%.3f absorb=%.3f graph=%.3f server-sgd=%.3f disperse=%.3f\n",
			row.RoundSecs, row.ClientSecs, row.AbsorbSecs, row.GraphSecs, row.ServerTrainSecs, row.DisperseSecs)
		fmt.Fprintf(w, "  peak-heap=%s  graph-engine=%s\n",
			size(int64(row.PeakHeapBytes)), size(row.GraphEngineBytes))
		return
	}
	fmt.Fprintf(w, "Scalability: %s (%d users × %d items), %d rounds, GOMAXPROCS=%d\n",
		r.Profile, r.Users, r.Items, r.Rounds, r.GOMAXPROCS)
	fmt.Fprintf(w, "  %-8s %12s %12s %12s %10s %11s\n",
		"workers", "round-secs", "rounds/sec", "round-spdup", "eval-secs", "eval-spdup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8d %12.3f %12.3f %11.2fx %10.3f %10.2fx\n",
			row.Workers, row.RoundSecs, row.RoundsPerSec, row.RoundSpeedup, row.EvalSecs, row.EvalSpeedup)
	}
	fmt.Fprintln(w, "  per-phase (secs/round):")
	fmt.Fprintf(w, "  %-8s %10s %10s %10s %12s %10s %12s %12s\n",
		"workers", "client", "absorb", "graph", "server-sgd", "disperse", "sgd-spdup", "graph-spdup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8d %10.3f %10.3f %10.3f %12.3f %10.3f %11.2fx %11.2fx\n",
			row.Workers, row.ClientSecs, row.AbsorbSecs, row.GraphSecs,
			row.ServerTrainSecs, row.DisperseSecs, row.ServerTrainSpeedup, row.GraphSpeedup)
	}
	fmt.Fprintln(w, "  memory (post-run retained state; peak = max live heap at phase boundaries):")
	fmt.Fprintf(w, "  %-8s %12s %13s\n", "workers", "peak-heap", "graph-engine")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8d %12s %13s\n",
			row.Workers, size(int64(row.PeakHeapBytes)), size(row.GraphEngineBytes))
	}
	fmt.Fprintf(w, "  history and metrics identical across worker counts: %v (recall@20=%.4f ndcg@20=%.4f)\n",
		r.Deterministic, r.Rows[0].Recall, r.Rows[0].NDCG)
}
