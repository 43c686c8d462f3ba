// Command ptfmark is the repository's benchmark: four workloads generated
// from a seed, end-to-end metrics from a tracing-off run of the product's
// default entry point, per-layer metrics from a separate traced run that
// times calls into each layer's exported functions from outside, and output
// checks on both. See README.md in this directory.
//
// Run from the repository root:
//
//	bash bench/run.sh --workload paper-full --seed 1 --seconds 20 --trace 0   (one run; the driver's form)
//	bash bench/run.sh -seed 1                  (every workload, measured then traced, each in a child process)
//	bash bench/run.sh -repeat 10 -vary-seed    (ten measured sets; medians, quartiles, spread against the bounds)
//	bash bench/run.sh -compare old.json new.json
//	bash bench/run.sh -smoke                   (all four shapes at two rounds on shrunken populations)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process (the driver's form)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", refSeconds, "run length; scales each workload's round count")
		trace    = flag.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "shrunken populations, two rounds")
		repeat   = flag.Int("repeat", 0, "run this many measured sets back to back and summarise each metric")
		varySeed = flag.Bool("vary-seed", false, "with -repeat: set i uses seed+i instead of the same seed")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()

	set := workloads
	if *smoke {
		set = smokeWorkloads()
	}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare old.json new.json")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *name != "":
		err = runChild(set, *name, *seed, *seconds, *trace != 0)
	case *repeat > 0:
		err = runRepeat(set, *seed, *seconds, *smoke, *repeat, *varySeed)
	default:
		err = runSuite(set, *seed, *seconds, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptfmark:", err)
		os.Exit(1)
	}
}

// runChild runs one workload in this process, so peak RSS and CPU time are
// the workload's own and no heap state leaks between workloads. It prints
// every metric by name with its unit, the checks, and — last — the driver's
// result line. A run that cannot produce a result prints none.
func runChild(set []workload, name string, seed uint64, seconds float64, trace bool) error {
	w, err := workloadByName(set, name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	res := newResult(w, seed, seconds, trace, newStamp(pinProcs()))
	start := time.Now()
	var spans []span
	if trace {
		spans, err = runTraced(w, seed, seconds, res)
	} else {
		err = runMeasured(w, seed, seconds, res)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	res.WallSeconds = time.Since(start).Seconds()
	res.checkComplete()

	base := childFileBase(w.Name, seed, trace)
	if trace {
		if res.SpanFile, err = writeSpans(base+".spans.jsonl", spans); err != nil {
			return err
		}
	}
	if _, err := writeJSON(base+".json", res); err != nil {
		return err
	}
	fmt.Printf("%s seed=%d rounds=%d trace=%v gomaxprocs=%d wall=%.1fs history=%.16s\n",
		w.Name, seed, res.Rounds, trace, res.Stamp.GoMaxProcs, res.WallSeconds, res.HistorySHA256)
	res.printMetrics()
	fmt.Println(res.resultLine())
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

func childFileBase(workload string, seed uint64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", workload, seed, t)
}

// pair is one workload's two runs within a set.
type pair struct {
	Measured *result `json:"measured,omitempty"`
	Traced   *result `json:"traced,omitempty"`
}

// setFile is what the suite and -repeat write and -compare reads: one or
// more sets, each mapping workload name to its runs.
type setFile struct {
	Stamp   stamp             `json:"stamp"`
	Seed    uint64            `json:"seed"`
	Seconds float64           `json:"seconds"`
	Smoke   bool              `json:"smoke"`
	Sets    []map[string]pair `json:"sets"`
	Summary []metricSummary   `json:"summary,omitempty"`
}

// spawn re-executes this binary for one workload run and loads the result
// file the child wrote. The child's output passes through.
func spawn(name string, seed uint64, seconds float64, smoke, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t}
	if smoke {
		args = append(args, "-smoke")
	}
	path := outDir + "/" + childFileBase(name, seed, trace) + ".json"
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err // a stale result must not pass for this run's
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s trace=%s: %w", name, t, runErr)
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runSuite runs every workload measured and then traced, each in its own
// child, cross-checks the two runs' histories, and writes one set file.
func runSuite(set []workload, seed uint64, seconds float64, smoke bool) error {
	out := setFile{Stamp: newStamp(pinProcs()), Seed: seed, Seconds: seconds, Smoke: smoke, Sets: []map[string]pair{{}}}
	failed := 0
	for _, w := range set {
		m, err := spawn(w.Name, seed, seconds, smoke, false)
		if err != nil {
			return err
		}
		t, err := spawn(w.Name, seed, seconds, smoke, true)
		if err != nil {
			return err
		}
		out.Sets[0][w.Name] = pair{Measured: m, Traced: t}
		// The traced run covers a prefix of the measured run's rounds; the
		// chained digests must agree there.
		prefix := len(t.RoundChain) > 0 && len(t.RoundChain) <= len(m.RoundChain) &&
			t.RoundChain[len(t.RoundChain)-1] == m.RoundChain[len(t.RoundChain)-1]
		fmt.Printf("%s: measured %.1fs, traced %.1fs, measured-vs-traced round prefix (%d rounds) equal: %v\n",
			w.Name, m.WallSeconds, t.WallSeconds, len(t.RoundChain), prefix)
		if !prefix || !m.Correct || !t.Correct {
			failed++
		}
	}
	kind := "suite"
	if smoke {
		kind = "smoke"
	}
	path, err := writeJSON(fmt.Sprintf("%s-seed%d.json", kind, seed), out)
	if err != nil {
		return err
	}
	fmt.Println("results:", path)
	if failed > 0 {
		return fmt.Errorf("%d workload(s) failed their output checks", failed)
	}
	return nil
}
