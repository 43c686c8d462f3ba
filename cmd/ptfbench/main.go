// Command ptfbench runs the paper's experiments from the command line.
//
// Usage:
//
//	ptfbench -exp table3                 # small-scale, full training
//	ptfbench -exp table4 -scale full     # paper-sized datasets
//	ptfbench -exp fig3 -quick            # shortened training (smoke run)
//	ptfbench -exp scalability -json      # machine-readable timing sweep
//	ptfbench -exp scalability -profile huge-1m   # 1M-user memory profile
//	ptfbench -list                       # list experiment ids
//	ptfbench -exp all                    # run everything
//	ptfbench -connect http://host:8470 -users 0:500   # join a ptfserve run
//
// The scalability sweep reports, per worker count, round and eval timings
// with speedups vs workers=1, the per-phase breakdown of the round (client
// training, absorb, graph build, server SGD, dispersal) and the server's
// memory accounting; every record is stamped with GOMAXPROCS, CPU model and
// git SHA. BENCH_scalability.json at the repo root records the sweep per
// commit (`make bench` regenerates it; CI uploads a fresh one as an
// artifact). The networked path is measured by the repository benchmark's
// net-loopback workload (bench/), not here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"ptffedrec/internal/coord"
	"ptffedrec/internal/data"
	"ptffedrec/internal/experiments"
)

// jsonRecord is the machine-readable envelope emitted per experiment under
// -json: one JSON object per line, suitable for the BENCH_*.json perf
// trajectory and other tooling.
type jsonRecord struct {
	Experiment string  `json:"experiment"`
	Scale      string  `json:"scale"`
	Quick      bool    `json:"quick"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Result     any     `json:"result"`
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (or 'all')")
		scale   = flag.String("scale", "small", "dataset scale: small | full")
		quick   = flag.Bool("quick", false, "shortened training (benchmark-style smoke run)")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		profile = flag.String("profile", "", "override the dataset profile (e.g. huge-1m for the memory-profile scalability run)")
		rounds  = flag.Int("rounds", 0, "override the round count of the memory-profile scalability mode (0 = keep the default)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		verbose = flag.Bool("v", false, "log per-run progress")
		asJSON  = flag.Bool("json", false, "emit one JSON object per experiment instead of tables")
		connect = flag.String("connect", "", "participant mode: base URL of a ptfserve coordinator")
		users   = flag.String("users", "", "participant mode: hosted user range as lo:hi")
	)
	flag.Parse()

	if *connect != "" {
		if err := runParticipant(*connect, *users); err != nil {
			fmt.Fprintf(os.Stderr, "ptfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.ExperimentIDs {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "ptfbench: -exp is required (try -list)")
		os.Exit(2)
	}

	o := experiments.Options{
		Scale:  experiments.Scale(*scale),
		Quick:  *quick,
		Seed:   *seed,
		Rounds: *rounds,
	}
	if o.Scale != experiments.ScaleSmall && o.Scale != experiments.ScaleFull {
		fmt.Fprintf(os.Stderr, "ptfbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *profile != "" {
		p, err := data.ProfileByName(*profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ptfbench: %v\n", err)
			os.Exit(2)
		}
		o.ProfilesOverride = []data.Profile{p}
	}
	if *verbose {
		o.Out = os.Stderr
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.ExperimentIDs
	}
	enc := json.NewEncoder(os.Stdout)
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.ResultFor(id, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ptfbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if *asJSON {
			rec := jsonRecord{
				Experiment: id,
				Scale:      string(o.Scale),
				Quick:      o.Quick,
				Seed:       o.Seed,
				Seconds:    elapsed.Seconds(),
				Result:     res,
			}
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintf(os.Stderr, "ptfbench: %s: %v\n", id, err)
				os.Exit(1)
			}
			continue
		}
		res.Print(os.Stdout)
		fmt.Printf("  (%s finished in %v)\n\n", id, elapsed.Round(time.Millisecond))
	}
}

// runParticipant joins a ptfserve coordinator as the host of a user range
// and processes rounds until the coordinator shuts the run down. Everything
// else — dataset, split, and training configuration — arrives through the
// join handshake.
func runParticipant(base, users string) error {
	var lo, hi int
	if n, err := fmt.Sscanf(users, "%d:%d", &lo, &hi); n != 2 || err != nil {
		return fmt.Errorf("-connect needs -users lo:hi (got %q)", users)
	}
	p, err := coord.Join(base, lo, hi, nil)
	if err != nil {
		return err
	}
	fmt.Printf("ptfbench: joined %s as session %d hosting users [%d, %d)\n", base, p.Token(), lo, hi)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := p.Run(ctx); err != nil {
		return err
	}
	fmt.Println("ptfbench: coordinator shut the run down; leaving")
	return nil
}
