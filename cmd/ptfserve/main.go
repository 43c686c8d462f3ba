// Command ptfserve runs the PTF-FedRec coordinator as a network service, or
// verifies the networked round path against the in-process trainer.
//
// Usage:
//
//	ptfserve -addr :8470 -profile ml-100k-small -server lightgcn -wait 2
//	ptfserve -selftest            # loopback bitwise verification (CI smoke)
//
// In serve mode the process listens for participants (see `ptfbench
// -connect`), waits until -wait of them have joined, then drives the
// configured number of rounds and prints the per-round trace. Participants
// reconstruct the dataset and configuration from the join handshake — the
// only shared inputs are the profile name, seeds, and fractions printed at
// startup.
//
// In -selftest mode the binary spins up a coordinator on a loopback
// listener, joins -participants in-process participants over real HTTP, and
// requires the resulting history to be bitwise-identical to Algorithm 1 run
// in process on the same split — one fed.Trainer round after another —
// fault-free and under a FaultPlan whose dropouts and truncations travel
// through the transport. It exits non-zero on any divergence, making it a
// one-command end-to-end smoke test.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"ptffedrec/internal/coord"
	"ptffedrec/internal/data"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
)

// Server-side connection limits. A peer gets readHeaderTimeout to finish its
// request header and an idle keep-alive connection is reaped after
// idleTimeout, so a peer that connects and stalls cannot hold a goroutine and
// a descriptor for the life of the run. ReadTimeout and WriteTimeout stay
// unset on purpose: they bound a whole request, and a parked /v1/poll
// legitimately lives 25 s (coord's pollWait) while an upload body streams for
// as long as its wave of clients trains.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the one place ptfserve builds an http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	var (
		addr         = flag.String("addr", ":8470", "listen address (serve mode)")
		profile      = flag.String("profile", "ml-100k-small", "dataset profile participants rebuild (see data.ProfileByName)")
		seed         = flag.Uint64("seed", 1, "data seed: generation and split")
		frac         = flag.Float64("frac", 0.2, "test fraction of the split")
		server       = flag.String("server", "lightgcn", "server model kind: mf | neumf | ngcf | lightgcn")
		rounds       = flag.Int("rounds", 0, "override Config.Rounds (0 = model default)")
		workers      = flag.Int("workers", 0, "server worker pool (0 = GOMAXPROCS)")
		wait         = flag.Int("wait", 1, "participants to wait for before starting rounds")
		deadline     = flag.Duration("deadline", 0, "per-round straggler deadline (0 = wait forever; negative is refused)")
		selftest     = flag.Bool("selftest", false, "run the loopback bitwise verification and exit")
		participants = flag.Int("participants", 2, "participant processes in -selftest mode")
	)
	flag.Parse()

	if *selftest {
		if err := runSelftest(*participants); err != nil {
			fmt.Fprintf(os.Stderr, "ptfserve: selftest: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("ptfserve: selftest passed: networked history is bitwise-identical to the in-process trainer")
		return
	}

	kind, err := models.ParseKind(*server)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptfserve: %v\n", err)
		os.Exit(2)
	}
	p, err := data.ProfileByName(*profile)
	if err == nil {
		err = checkFrac(*frac)
	}
	if err == nil {
		err = checkDeadline(*deadline)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptfserve: %v\n", err)
		os.Exit(2)
	}
	cfg := fed.DefaultConfig(kind)
	if *rounds > 0 {
		cfg.Rounds = *rounds
	}
	cfg.Workers = *workers

	sp := data.StreamSplit(p, *seed, *frac)
	c, err := coord.New(sp, cfg, coord.Options{
		Profile:  p.Name,
		DataSeed: *seed,
		TestFrac: *frac,
		Deadline: *deadline,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptfserve: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptfserve: %v\n", err)
		os.Exit(1)
	}
	srv := newHTTPServer(c.Handler())
	go srv.Serve(ln)
	defer srv.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("ptfserve: listening on %s — profile=%s seed=%d frac=%g server=%s rounds=%d\n",
		ln.Addr(), p.Name, *seed, *frac, kind, cfg.Rounds)
	fmt.Printf("ptfserve: waiting for %d participant(s) to join\n", *wait)
	for c.Sessions() < *wait {
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "ptfserve: interrupted while waiting for participants")
			os.Exit(1)
		case <-time.After(100 * time.Millisecond):
		}
	}

	h, err := c.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptfserve: run: %v\n", err)
		os.Exit(1)
	}
	// Keep serving until participants have drained the final dispersals and
	// the shutdown notice (they deregister on the way out), then exit.
	drainDeadline := time.Now().Add(15 * time.Second)
	for c.Sessions() > 0 && time.Now().Before(drainDeadline) && ctx.Err() == nil {
		time.Sleep(50 * time.Millisecond)
	}
	for _, rs := range h.Rounds {
		fmt.Println(rs.String())
	}
	in, out := c.WireBytes()
	fmt.Printf("final: recall@k=%.4f ndcg@k=%.4f meanAttackF1=%.3f wire: in=%d out=%d bytes\n",
		h.Final.Recall, h.Final.NDCG, h.MeanAttackF1, in, out)
}

// checkFrac refuses a test fraction outside [0, 1], NaN included: every
// participant would refuse the join-ack, and the run wait for them forever.
func checkFrac(frac float64) error {
	if !(frac >= 0 && frac <= 1) {
		return fmt.Errorf("-frac %v: want a fraction in [0, 1]", frac)
	}
	return nil
}

// checkDeadline refuses a negative straggler deadline: the coordinator arms
// its round timer only for a positive one, so a negative value would mean
// no deadline, and one straggler would hold the run forever.
func checkDeadline(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("-deadline %v: want 0 (wait forever) or a positive duration", d)
	}
	return nil
}

// selftestConfig is the smoke run's shape: small enough to finish in
// seconds, with a graph server model so the full absorb→rebuild→train→
// disperse pipeline is on the wire path.
func selftestConfig() fed.Config {
	cfg := fed.DefaultConfig(models.KindLightGCN)
	cfg.ClientModel = models.KindMF
	cfg.Rounds = 2
	cfg.EvalEvery = 1
	cfg.ClientEpochs = 1
	cfg.ServerEpochs = 1
	cfg.Dim = 8
	cfg.Alpha = 10
	cfg.Workers = 4
	return cfg
}

// runSelftest verifies the loopback bitwise contract over real HTTP: a clean
// run and a faulted run whose dropouts and truncations cross the transport
// as empty bodies and cut streams. Each networked history must match the
// serial in-process round loop bit for bit — pinning schedule invariance
// (the coordinator pipelines rounds; the reference does not) and transport
// fidelity in one sweep.
func runSelftest(participants int) error {
	const seed, frac = 42, 0.2
	if participants < 1 {
		return fmt.Errorf("need at least one participant, got %d", participants)
	}
	for _, tc := range []struct {
		name   string
		faults fed.FaultPlan
	}{
		{"clean", fed.FaultPlan{}},
		{"faulted", fed.FaultPlan{DropoutRate: 0.3, TruncateRate: 0.5}},
	} {
		cfg := selftestConfig()
		cfg.Faults = tc.faults
		want, err := serialHistory(data.StreamSplit(data.Tiny, seed, frac), cfg)
		if err != nil {
			return err
		}
		got, err := runSelftestNetworked(cfg, seed, frac, participants)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		if err := equalHistories(want, got); err != nil {
			return fmt.Errorf("%s: networked history diverged: %w", tc.name, err)
		}
		fmt.Printf("ptfserve: selftest %s: %d rounds over %d participants match bitwise\n",
			tc.name, len(got.Rounds), participants)
	}
	return nil
}

// serialHistory is Algorithm 1 as written: one in-process round after
// another, evaluated when due, then the final evaluation.
func serialHistory(sp *data.Split, cfg fed.Config) (*fed.History, error) {
	tr, err := fed.NewTrainer(sp, cfg)
	if err != nil {
		return nil, err
	}
	var rounds []fed.RoundStats
	for round := 0; round < cfg.Rounds; round++ {
		rounds = append(rounds, tr.RunRound(round))
	}
	return fed.NewHistory(rounds, tr.EvaluateServer()), nil
}

// runSelftestNetworked drives one training run through the coordinator on a
// loopback listener with participants splitting the user universe evenly.
func runSelftestNetworked(cfg fed.Config, seed uint64, frac float64, participants int) (*fed.History, error) {
	sp := data.StreamSplit(data.Tiny, seed, frac)
	c, err := coord.New(sp, cfg, coord.Options{
		Profile:  data.Tiny.Name,
		DataSeed: seed,
		TestFrac: frac,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := newHTTPServer(c.Handler())
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	base := "http://" + ln.Addr().String()
	errCh := make(chan error, participants)
	per := (sp.NumUsers + participants - 1) / participants
	for i := 0; i < participants; i++ {
		lo, hi := i*per, (i+1)*per
		if hi > sp.NumUsers {
			hi = sp.NumUsers
		}
		p, err := coord.Join(base, lo, hi, nil)
		if err != nil {
			return nil, fmt.Errorf("join [%d, %d): %w", lo, hi, err)
		}
		go func() { errCh <- p.Run(ctx) }()
	}
	got, err := c.Run(ctx)
	if err != nil {
		cancel() // unblock participants before draining their errors
	}
	for i := 0; i < participants; i++ {
		if perr := <-errCh; perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, err
	}
	return got, nil
}

// equalHistories compares two training traces with bitwise float equality.
func equalHistories(a, b *fed.History) error {
	if len(a.Rounds) != len(b.Rounds) {
		return fmt.Errorf("round counts differ: %d vs %d", len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			return fmt.Errorf("round %d differs:\n  %+v\n  %+v", i, a.Rounds[i], b.Rounds[i])
		}
	}
	if a.Final != b.Final || a.MeanAttackF1 != b.MeanAttackF1 {
		return fmt.Errorf("final results differ: %+v/%v vs %+v/%v",
			a.Final, a.MeanAttackF1, b.Final, b.MeanAttackF1)
	}
	return nil
}
