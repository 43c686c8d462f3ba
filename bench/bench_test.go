package main

import (
	"math"
	"reflect"
	"regexp"
	"testing"

	"ptffedrec/internal/fed"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesCode holds BENCHMARK.json and the lists the binary reports
// from equal: same names, same units, same order, and the contract's limits.
func TestSpecMatchesCode(t *testing.T) {
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, code sizes workloads for %d", sp.RunSeconds, refSeconds)
	}
	if !reflect.DeepEqual(sp.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", sp.Paths)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(sp.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range sp.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: declared %q, defined %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, declared []specMetric, defined []metricDef, bounded bool) {
		t.Helper()
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(declared), len(defined))
		}
		for i, m := range declared {
			unique(m.Name)
			if m.Name != defined[i].Name || m.Unit != defined[i].Unit {
				t.Errorf("%s %d: declared %s [%s], defined %s [%s]", kind, i, m.Name, m.Unit, defined[i].Name, defined[i].Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd, true)
	same("per_layer", sp.PerLayer, perLayer, false)
	if sp.EndToEnd[0].Name != "setup_s" || sp.EndToEnd[0].Unit != "s" || sp.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better: %+v", sp.EndToEnd[0])
	}
}

// TestWorkloadsArePureFunctionsOfSeed: the same seed gives the same inputs,
// another seed gives others.
func TestWorkloadsArePureFunctionsOfSeed(t *testing.T) {
	for _, w := range smokeWorkloads() {
		a, err := w.generate(7, 2, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.generate(7, 2, nil, -1)
		c, _ := w.generate(8, 2, nil, -1)
		if !reflect.DeepEqual(a.split, b.split) || !reflect.DeepEqual(a.cfg, b.cfg) {
			t.Errorf("%s: same seed, different inputs", w.Name)
		}
		if reflect.DeepEqual(a.split.Train, c.split.Train) || a.cfg.Seed == c.cfg.Seed {
			t.Errorf("%s: different seeds, same inputs", w.Name)
		}
		if a.ev.Users() == 0 {
			t.Errorf("%s: empty evaluation panel", w.Name)
		}
	}
}

func TestSelfSecondsSubtractsCoveredChildTime(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	spans := []span{
		{Name: "parent", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},  // overlaps a: union 10..60
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // clipped to the parent: 90..100
		{Name: "grandchild", Start: ms(15), End: ms(20), Parent: 1},
		{Name: "stranger", Start: ms(0), End: ms(100), Parent: -1},
	}
	if got := selfSeconds(spans, 0); math.Abs(got-0.040) > 1e-12 {
		t.Errorf("parent self time = %v, want 0.040 (100 - 50 - 10 ms)", got)
	}
	if got := selfSeconds(spans, 1); math.Abs(got-0.025) > 1e-12 {
		t.Errorf("child self time = %v, want 0.025", got)
	}
	if got := selfSeconds(spans, 5); math.Abs(got-0.100) > 1e-12 {
		t.Errorf("childless span self time = %v, want its duration", got)
	}
}

// TestTailPercentileRule: the tail is the highest ladder percentile with at
// least ten samples beyond it, and absent when no percentile has ten.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{{9, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(tc.n - i) // descending: summarize must sort a copy
		}
		got := summarize(samples)
		if got.N != tc.n || got.TailPct != tc.pct {
			t.Errorf("n=%d: tail percentile %v (n=%d), want %v", tc.n, got.TailPct, got.N, tc.pct)
		}
		if tc.pct > 0 {
			beyond := 0
			for _, v := range samples {
				if v > got.Tail {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, tc.pct)
			}
		}
		if samples[0] != float64(tc.n) {
			t.Errorf("n=%d: summarize reordered its input", tc.n)
		}
	}
	if got := summarize([]float64{4, 1, 3, 2}).Median; got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to what Python's
// statistics.quantiles(values, n=4) returns, which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1.5, 2.5, 10, 4})
	if q1 != 1.75 || q3 != 8.5 {
		t.Errorf("quartiles = %v, %v; Python gives 1.75, 8.5", q1, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := specMetric{Name: "round_s", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "final_ndcg", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	for _, tc := range []struct {
		name     string
		old, cur []float64
		m        specMetric
		want     string
	}{
		{"slower beyond the bound", steady(1), steady(1.2), lower, verdictRegression},
		{"slower within the bound", steady(1), steady(1.05), lower, verdictOK},
		{"faster", steady(1), steady(0.5), lower, verdictOK},
		{"quality lost", steady(0.3), steady(0.2), higher, verdictRegression},
		{"quality gained", steady(0.3), steady(0.4), higher, verdictOK},
		{"single values", []float64{1}, []float64{1.3}, lower, verdictRegression},
		{"spread wider than the bound", []float64{1, 1.5, 0.6, 1.2, 0.8}, steady(1.3), lower, verdictUnresolved},
	} {
		if got, _ := judge(tc.old, tc.cur, tc.m); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestHistoryDigestCoversEveryField(t *testing.T) {
	h := &fed.History{Rounds: []fed.RoundStats{{Round: 0, Participants: 3, ClientLoss: 0.5}, {Round: 1, Participants: 3, NDCG: 0.1, Evaluated: true}}}
	h.Final.NDCG = 0.2
	base, chain := historyDigest(h)
	if len(chain) != 2 {
		t.Fatalf("chain has %d links", len(chain))
	}
	// A prefix run's last link equals the longer run's link at that round.
	_, prefix := historyDigest(&fed.History{Rounds: h.Rounds[:1]})
	if prefix[0] != chain[0] {
		t.Error("prefix chain differs from the full run's")
	}
	mutations := []func(*fed.History){
		func(h *fed.History) { h.Rounds[0].ClientLoss = math.Nextafter(0.5, 1) },
		func(h *fed.History) { h.Rounds[1].Evaluated = false },
		func(h *fed.History) { h.Rounds[1].DispersBytes++ },
		func(h *fed.History) { h.Final.Users++ },
		func(h *fed.History) { h.MeanAttackF1 = 1e-300 },
	}
	for i, mutate := range mutations {
		c := &fed.History{Rounds: append([]fed.RoundStats(nil), h.Rounds...), Final: h.Final, MeanAttackF1: h.MeanAttackF1}
		mutate(c)
		if d, _ := historyDigest(c); d == base {
			t.Errorf("mutation %d left the digest unchanged", i)
		}
	}
}

// TestSmoke runs all four workload shapes, measured and traced, at two rounds
// on shrunken populations — the loopback socket included — and requires every
// output check to pass and every declared metric to be reported.
func TestSmoke(t *testing.T) {
	procs := pinProcs()
	for _, w := range smokeWorkloads() {
		run := func(trace bool) *result {
			res := newResult(w, 5, refSeconds, trace, stamp{GoMaxProcs: procs})
			var err error
			if trace {
				_, err = runTraced(w, 5, refSeconds, res)
			} else {
				err = runMeasured(w, 5, refSeconds, res)
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			res.checkComplete()
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", w.Name, trace, c.Name, c.Detail)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, trace, res.Attempted, res.Failed)
			}
			return res
		}
		m, tr := run(false), run(true)
		if last := len(tr.RoundChain) - 1; tr.RoundChain[last] != m.RoundChain[last] {
			t.Errorf("%s: traced round chain is not a prefix of the measured run's", w.Name)
		}
	}
}
