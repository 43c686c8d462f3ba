package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spec mirrors BENCHMARK.json: the metric directions and regression bounds
// live there, not in code, so -compare and -repeat judge by the same numbers
// the driver does.
type spec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// specFile is read relative to the checkout root the benchmark runs from.
const specFile = "BENCHMARK.json"

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), which
// is how the driver measures spread. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median;
// 0 when there are too few values to have one.
func spread(values []float64) float64 {
	if len(values) < 4 {
		return 0
	}
	q1, q3 := quartiles(values)
	if m := median(values); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// worsening is how much worse new's median is than old's, as a share of
// old's, in the metric's own direction (negative = better).
func worsening(old, new float64, better string) float64 {
	if old == 0 {
		return 0
	}
	if better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// Verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judge compares two sets of values of one bounded metric: a spread wider
// than the bound on either side leaves the pairing unresolved; otherwise a
// median worse by more than the bound is a regression.
func judge(old, new []float64, m specMetric) (string, float64) {
	w := worsening(median(old), median(new), m.Better)
	switch {
	case spread(old) > m.Bound || spread(new) > m.Bound:
		return verdictUnresolved, w
	case w > m.Bound:
		return verdictRegression, w
	}
	return verdictOK, w
}

// values collects one metric's value from every set of a file.
func (f *setFile) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, set := range f.Sets {
		r := set[workload].Measured
		if traced {
			r = set[workload].Traced
		}
		if r == nil {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func loadSetFile(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f setFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles judges new against old, metric by metric and workload by
// workload, by the bounds in BENCHMARK.json. Per-layer metrics have no bound
// and are listed with their change only. It fails on any regression.
func compareFiles(oldPath, newPath string) error {
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	old, err := loadSetFile(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadSetFile(newPath)
	if err != nil {
		return err
	}
	if regressions := compareSets(sp, old, cur); regressions > 0 {
		return fmt.Errorf("%d regression(s) beyond the bounds in %s", regressions, specFile)
	}
	return nil
}

func compareSets(sp *spec, old, cur *setFile) int {
	regressions := 0
	for _, wl := range sp.Workloads {
		fmt.Printf("%s\n", wl.Name)
		for _, m := range sp.EndToEnd {
			o, n := old.values(wl.Name, m.Name, false), cur.values(wl.Name, m.Name, false)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, worse := judge(o, n, m)
			if v == verdictRegression {
				regressions++
			}
			fmt.Printf("  %-30s %12.6g -> %12.6g %-8s %+7.2f%% worse (bound %.0f%%, n=%d/%d)  %s\n",
				m.Name, median(o), median(n), m.Unit, 100*worse, 100*m.Bound, len(o), len(n), v)
		}
		for _, m := range sp.PerLayer {
			o, n := old.values(wl.Name, m.Name, true), cur.values(wl.Name, m.Name, true)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			fmt.Printf("  %-30s %12.6g -> %12.6g %-8s %+7.2f%% worse\n",
				m.Name, median(o), median(n), m.Unit, 100*worsening(median(o), median(n), m.Better))
		}
	}
	return regressions
}

// metricSummary is one end-to-end metric of one workload across the sets of
// a -repeat run.
type metricSummary struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	// Steadiness: "steady" when the spread is within a third of the bound,
	// "within" when inside the bound, "unresolved" when wider than it.
	Verdict string `json:"verdict"`
}

func summarise(sp *spec, f *setFile) []metricSummary {
	var out []metricSummary
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			vals := f.values(wl.Name, m.Name, false)
			if len(vals) < 2 {
				continue
			}
			s := metricSummary{Workload: wl.Name, Metric: m.Name, Unit: m.Unit, Values: vals,
				Median: median(vals), Spread: spread(vals), Bound: m.Bound}
			s.Q1, s.Q3 = quartiles(vals)
			switch {
			case s.Spread > m.Bound:
				s.Verdict = verdictUnresolved
			case s.Spread > m.Bound/3:
				s.Verdict = "within"
			default:
				s.Verdict = "steady"
			}
			out = append(out, s)
		}
	}
	return out
}

// runRepeat runs n measured sets back to back — the same seed each time, or
// seed+i with varySeed (how the driver measures spread) — and reports every
// end-to-end metric's median, quartiles and spread against its bound.
func runRepeat(set []workload, seed uint64, seconds float64, smoke bool, n int, varySeed bool) error {
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	out := setFile{Stamp: newStamp(pinProcs()), Seed: seed, Seconds: seconds, Smoke: smoke}
	incorrect := 0
	for i := 0; i < n; i++ {
		s := seed
		if varySeed {
			s += uint64(i)
		}
		runs := map[string]pair{}
		for _, w := range set {
			m, err := spawn(w.Name, s, seconds, smoke, false)
			if err != nil {
				return err
			}
			if !m.Correct {
				incorrect++
			}
			runs[w.Name] = pair{Measured: m}
		}
		out.Sets = append(out.Sets, runs)
	}
	out.Summary = summarise(sp, &out)
	for _, s := range out.Summary {
		fmt.Printf("%-14s %-30s median %12.6g  q1 %12.6g  q3 %12.6g %-8s spread %5.2f%% of bound %4.0f%%  %s\n",
			s.Workload, s.Metric, s.Median, s.Q1, s.Q3, s.Unit, 100*s.Spread, 100*s.Bound, s.Verdict)
	}
	path, err := writeJSON(fmt.Sprintf("repeat%d-seed%d.json", n, seed), out)
	if err != nil {
		return err
	}
	fmt.Println("results:", path)
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed their output checks", incorrect)
	}
	return nil
}
