package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"ptffedrec/internal/eval"
	"ptffedrec/internal/fed"
)

// metricDef names one metric and its unit; BENCHMARK.json adds the direction
// and, for end-to-end metrics, the regression bound. A test holds the two
// lists equal.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of the system sees, measured with tracing off.
// failed_share is not among them: its expected value is 0 and it is reported
// through the result line's attempted/failed counts instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_s", "s"},
	{"cpu_s_per_round", "core-s"},
	{"peak_rss_mb", "MiB"},
	{"wire_bytes_per_client_round", "B"},
	{"final_ndcg", "NDCG-at-20"},
	{"attack_f1", "F1"},
}

// perLayer is what the traced run reports, one or more per layer; timings
// are medians (the result file adds the tail percentile and sample count).
var perLayer = []metricDef{
	// Round structure (fed), driven through the public halves.
	{"fed.select_s", "s"},
	{"fed.client_wave_s", "s"},
	{"fed.client_round_s", "s"},
	{"fed.client_round_tail_s", "s"},
	{"fed.client_rounds", "count"},
	{"fed.close_round_s", "s"},
	{"fed.deliver_s", "s"},
	{"fed.evaluate_s", "s"},
	{"fed.round_s", "s"},
	{"fed.round_self_s", "s"},
	{"fed.pipeline_gain", "ratio"},
	// models
	{"models.train_batch_s", "s"},
	{"models.train_batch_allocs", "count"},
	{"models.train_batch_alloc_kb", "KiB"},
	{"models.warm_s", "s"},
	{"models.score_users_block_s", "s"},
	{"models.client_train_batch_s", "s"},
	// graph
	{"graph.commit_s", "s"},
	{"graph.adj_into_s", "s"},
	{"graph.engine_mb", "MiB"},
	{"graph.edges", "count"},
	// kernels
	{"tensor.spmm_s", "s"},
	{"tensor.spmm_nnz", "count"},
	{"tensor.gather_gemm_s", "s"},
	{"metrics.topk_s", "s"},
	{"metrics.logit_select_s", "s"},
	{"candset.complement_s", "s"},
	// eval
	{"eval.build_s", "s"},
	{"eval.cache_mb", "MiB"},
	{"eval.rank_s", "s"},
	// privacy / comm / persist
	{"privacy.upload_build_s", "s"},
	{"comm.encode_s", "s"},
	{"comm.decode_s", "s"},
	{"comm.bytes_per_prediction", "B"},
	{"comm.frame_rw_s", "s"},
	{"persist.snapshot_s", "s"},
	{"persist.snapshot_mb", "MiB"},
	// coord, timed from outside by the participant's http.RoundTripper
	{"coord.join_s", "s"},
	{"coord.upload_req_s", "s"},
	{"coord.upload_req_tail_s", "s"},
	{"coord.upload_reqs", "count"},
	{"coord.poll_req_s", "s"},
	{"coord.poll_reqs", "count"},
	{"coord.http_errors", "count"},
	{"coord.wire_in_bytes_per_round", "B"},
	{"coord.wire_out_bytes_per_round", "B"},
	{"coord.framing_overhead", "ratio"},
	{"coord.wire_overhead_s", "s"},
	// memory and allocator
	{"fed.upload_store_mb", "MiB"},
	{"fed.elig_cache_mb", "MiB"},
	{"fed.graph_engine_mb", "MiB"},
	{"go.live_heap_mb", "MiB"},
	{"go.alloc_mb_per_round", "MiB"},
	{"go.gc_cycles_per_round", "count"},
	{"go.gc_pause_ms_per_round", "ms"},
	// bookkeeping
	{"data.split_s", "s"},
	{"fed.new_trainer_s", "s"},
	{"bench.trace_overhead_share", "ratio"},
}

// metricValue is one reported number, as the driver's result line wants it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check and what it saw.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// stamp records where and on what a result was taken.
type stamp struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
}

// result is one child run: one workload, measured or traced.
type result struct {
	Stamp    stamp   `json:"stamp"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Rounds   int     `json:"rounds"`

	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Checks    []check `json:"checks"`

	Metrics map[string]metricValue `json:"metrics"`
	// Timings holds the full summary behind each timed per-layer metric.
	Timings map[string]timing `json:"timings,omitempty"`

	// HistorySHA256 digests the run's whole History; RoundChain[r] digests
	// rounds 0..r, so a run of fewer rounds can be compared as a prefix.
	HistorySHA256 string   `json:"history_sha256"`
	RoundChain    []string `json:"round_chain"`

	WallSeconds float64 `json:"wall_s"`
	SpanFile    string  `json:"span_file,omitempty"`
}

func newResult(w workload, seed uint64, seconds float64, trace bool, st stamp) *result {
	return &result{Stamp: st, Workload: w.Name, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: true, Metrics: map[string]metricValue{}, Timings: map[string]timing{}}
}

// defs is the metric list this run's kind reports.
func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

func (r *result) set(name string, v float64) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// setTiming records a timed metric's median and keeps the whole summary.
func (r *result) setTiming(name string, samples []float64) timing {
	t := summarize(samples)
	r.set(name, t.Median)
	r.Timings[name] = t
	return t
}

// resultLine is the driver's contract: the last line of standard output.
func (r *result) resultLine() string {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// checkComplete verifies every declared metric of the run's kind was
// reported as a finite number, and the end-to-end ones as non-zero.
func (r *result) checkComplete() {
	defs := r.defs()
	var bad []string
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!r.Trace && v.Value <= 0) {
			bad = append(bad, d.Name)
		}
	}
	r.check("metrics_complete", len(bad) == 0 && len(r.Metrics) == len(defs), "missing or invalid: %v", bad)
}

// historyDigest hashes a run's trace exactly (float bits, not decimal
// renderings): chain[r] covers rounds 0..r, and the returned digest adds the
// final evaluation and the mean attack score.
func historyDigest(h *fed.History) (digest string, chain []string) {
	var state [sha256.Size]byte
	put := func(buf []byte, vals ...uint64) []byte {
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		return buf
	}
	for _, rs := range h.Rounds {
		ev := uint64(0)
		if rs.Evaluated {
			ev = 1
		}
		buf := put(state[:], uint64(rs.Round), uint64(rs.Participants), uint64(rs.Dropped),
			math.Float64bits(rs.ClientLoss), math.Float64bits(rs.ServerLoss), math.Float64bits(rs.AttackF1),
			uint64(rs.UploadBytes), uint64(rs.DispersBytes),
			math.Float64bits(rs.Recall), math.Float64bits(rs.NDCG), ev)
		state = sha256.Sum256(buf)
		chain = append(chain, hex.EncodeToString(state[:]))
	}
	buf := put(state[:], math.Float64bits(h.Final.Recall), math.Float64bits(h.Final.NDCG),
		uint64(h.Final.Users), math.Float64bits(h.MeanAttackF1))
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), chain
}

// sameResult compares two evaluations bitwise.
func sameResult(a, b eval.Result) bool {
	return math.Float64bits(a.Recall) == math.Float64bits(b.Recall) &&
		math.Float64bits(a.NDCG) == math.Float64bits(b.NDCG) && a.Users == b.Users
}

func newStamp(procs int) stamp {
	s := stamp{
		GoMaxProcs: procs,
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
	}
	// The driver's checkout is not a git repository; the stamp then says so.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			s.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// outDir is where result files and span dumps land, relative to the checkout
// root the benchmark runs from.
const outDir = "bench/out"

// writeJSON writes v, indented, to outDir/name and returns the path.
func writeJSON(name string, v any) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(outDir, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// writeSpans dumps the traced run's spans beside its result file, one JSON
// object per line (name, start, end, parent index, round id).
func writeSpans(name string, spans []span) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printMetrics prints every reported metric by name with its unit, in
// declaration order.
func (r *result) printMetrics() {
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-32s %14.6g %s", d.Name, v.Value, v.Unit)
		if t, ok := r.Timings[d.Name]; ok && t.N > 0 {
			line += fmt.Sprintf("  (n=%d", t.N)
			if t.TailPct > 0 {
				line += fmt.Sprintf(", p%g=%.6g", t.TailPct, t.Tail)
			}
			line += ")"
		}
		fmt.Println(line)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Printf("  check %-28s %s  %s\n", c.Name, status, c.Detail)
	}
}
