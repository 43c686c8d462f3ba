package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"syscall"
	"time"

	"ptffedrec/internal/coord"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/fed"
)

// runTimeout bounds one training run; the driver's own limit is 180 s for the
// whole process, so a hang surfaces as an error well before that.
const runTimeout = 150 * time.Second

// ready is a workload set up to the point where the next call starts round 0:
// the product's default entry point (Trainer.Run, or Coordinator.Run with one
// joined participant over loopback TCP) behind one run function.
type ready struct {
	world *world
	run   func() (*fed.History, error)
	// reEvaluate ranks the final server model once more; it must reproduce
	// History.Final bitwise.
	reEvaluate func() eval.Result
	// wireBytes reports bytes that crossed the client/server boundary.
	wireBytes func(h *fed.History) int64
	close     func()

	// Networked runs only.
	coord *coord.Coordinator
}

// setup takes a workload from seed to ready. hc is the participant's HTTP
// client for a networked workload (nil = a plain pooled transport); rec times
// the phases under parent.
func (w workload) setup(seed uint64, rounds int, hc *http.Client, rec *recorder, parent int) (*ready, error) {
	wd, err := w.generate(seed, rounds, rec, parent)
	if err != nil {
		return nil, err
	}
	if w.networked {
		return setupNetworked(w, wd, seed, hc, rec, parent)
	}
	return setupInProcess(wd, rec, parent)
}

// setupInProcess hands the world to a plain fed.Trainer.
func setupInProcess(wd *world, rec *recorder, parent int) (*ready, error) {
	id := rec.begin("fed.new_trainer", parent, -1)
	t, err := fed.NewTrainer(wd.split, wd.cfg)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	t.ShareEvaluator(wd.ev)
	return &ready{
		world:      wd,
		run:        t.Run,
		reEvaluate: t.EvaluateServer,
		wireBytes:  func(h *fed.History) int64 { return h.TotalUploadBytes() + h.TotalDisperseBytes() },
		close:      func() {},
	}, nil
}

// timed runs the workload once from a collected heap and returns its History
// with the wall-clock and process CPU seconds the run took.
func (rd *ready) timed() (h *fed.History, wall, cpu float64, err error) {
	runtime.GC()
	cpu0 := cpuSeconds()
	start := time.Now()
	h, err = rd.run()
	return h, time.Since(start).Seconds(), cpuSeconds() - cpu0, err
}

// loopbackTransport is the participant's HTTP transport: its own, with an
// idle pool wide enough that the participant's upload fan-out (GOMAXPROCS
// requests in flight, plus one long poll) reuses connections instead of
// churning through ephemeral ports.
func loopbackTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64, IdleConnTimeout: time.Minute}
}

// setupNetworked stands the coordinator up behind a real TCP listener on
// 127.0.0.1 and joins one participant hosting every user, in this process.
func setupNetworked(w workload, wd *world, seed uint64, hc *http.Client, rec *recorder, parent int) (*ready, error) {
	if hc == nil {
		hc = &http.Client{Transport: loopbackTransport()}
	}
	id := rec.begin("coord.new", parent, -1)
	c, err := coord.New(wd.split, wd.cfg, coord.Options{Profile: w.profile.Name, DataSeed: seed, TestFrac: testFrac})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	c.ShareEvaluator(wd.ev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: c.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed from close below
	}()
	closeAll := func() {
		_ = srv.Close() // best effort: the run is over
		<-served
		hc.CloseIdleConnections()
	}

	id = rec.begin("coord.join", parent, -1)
	pt, err := coord.Join("http://"+ln.Addr().String(), 0, wd.split.NumUsers, hc)
	rec.end(id)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("join: %w", err)
	}
	return &ready{
		world: wd,
		coord: c,
		run: func() (*fed.History, error) {
			ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
			defer cancel()
			perr := make(chan error, 1)
			go func() { perr <- pt.Run(ctx) }()
			h, err := c.Run(ctx)
			if err != nil {
				cancel()
				<-perr
				return nil, fmt.Errorf("coordinator: %w", err)
			}
			if err := <-perr; err != nil {
				return nil, fmt.Errorf("participant: %w", err)
			}
			return h, nil
		},
		reEvaluate: func() eval.Result { return c.Engine().Evaluate(wd.ev) },
		wireBytes: func(*fed.History) int64 {
			in, out := c.WireBytes()
			return in + out
		},
		close: closeAll,
	}, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// pinProcs pins GOMAXPROCS to min(nproc, 4): wide enough that the pipeline
// and the worker pools overlap, narrow enough that a 2-core and a 64-core
// host run the same schedule shape.
func pinProcs() int {
	n := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(n)
	return n
}
