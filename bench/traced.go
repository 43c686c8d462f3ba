package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/fed"
)

// coordProbe is the fixed small networked run an in-process workload's
// traced child uses for the coord.* metrics: no request crosses a socket in
// those workloads, so the transport is timed on the smallest named profile
// instead, where per-request cost shows without load. net-loopback times its
// own run.
var coordProbe = workload{Name: "coord-probe", profile: data.Tiny, networked: true, rounds: 2, tune: crossDevice}

// runTraced is the tracing-on run. It drives the round through the public
// halves exactly as fed.Trainer.runRound does, one span per layer call, then
// runs the pipelined in-process twin and a networked run for comparison, and
// finally probes each layer's kernels at the workload's shapes on the
// trained model. It runs half the measured run's rounds; histories are
// compared as prefixes.
func runTraced(w workload, seed uint64, seconds float64, res *result) ([]span, error) {
	procs := runtime.GOMAXPROCS(0)
	full := w.roundsFor(seconds)
	rounds := max(2, (full+1)/2)
	res.Rounds = rounds
	rec := newRecorder()
	root := rec.begin("bench.traced", -1, -1)

	// The measured run's inputs (its evaluation panel included), run for the
	// first half of its rounds.
	su := rec.begin("bench.setup", root, -1)
	wd, err := w.generate(seed, full, rec, su)
	rec.end(su)
	if err != nil {
		return nil, err
	}
	wd.cfg.Rounds = rounds

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := tracedRounds(rec, root, wd, procs)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	perRound := cohort(wd.cfg, wd.split.NumUsers)
	res.Attempted = rounds * perRound
	h := &fed.History{Rounds: tr.rounds, Final: tr.final}
	for _, rs := range tr.rounds {
		h.MeanAttackF1 += rs.AttackF1
	}
	h.MeanAttackF1 /= float64(len(tr.rounds))
	res.HistorySHA256, res.RoundChain = historyDigest(h)
	checkHistory(res, h, wd.cfg, perRound, wd.ev.Users())

	// The pipelined in-process twin: the product's own schedule on the same
	// inputs. Its trace must equal the serial traced one bitwise, and the
	// ratio of the two walls is what the cross-round pipeline buys.
	twin, err := runTwin(wd, rec, root)
	if err != nil {
		return nil, err
	}
	res.check("traced_equals_pipelined", sameHistory(h, twin.h),
		"manual-halves trace vs Trainer.Run, %d rounds, digests %.12s / %.12s", rounds, res.HistorySHA256, digestOf(twin.h))

	// Round structure.
	roundT := res.setTiming("fed.round_s", rec.seconds("fed.round"))
	res.setTiming("fed.select_s", rec.seconds("fed.select"))
	res.setTiming("fed.client_wave_s", rec.seconds("fed.client_wave"))
	clientT := res.setTiming("fed.client_round_s", rec.seconds("fed.client_round"))
	res.set("fed.client_round_tail_s", clientT.Tail)
	res.set("fed.client_rounds", float64(clientT.N))
	res.setTiming("fed.close_round_s", rec.seconds("fed.close_round"))
	res.setTiming("fed.deliver_s", rec.seconds("fed.deliver"))
	res.setTiming("fed.evaluate_s", append(rec.seconds("fed.evaluate"), rec.seconds("fed.final_evaluate")...))
	var selfs []float64
	roundSpans := 0
	for id, s := range rec.spans {
		if s.Name == "fed.round" {
			selfs = append(selfs, selfSeconds(rec.spans, id))
		}
		if s.Round >= 0 {
			roundSpans++
		}
	}
	res.setTiming("fed.round_self_s", selfs)
	res.set("fed.pipeline_gain", tr.wall/twin.wall)
	res.set("bench.trace_overhead_share", spanCostSeconds(1_000_000)*float64(roundSpans)/float64(rounds)/roundT.Median)

	// Set-up parts.
	res.setTiming("data.split_s", rec.seconds("data.split"))
	res.setTiming("eval.build_s", rec.seconds("eval.build"))
	res.setTiming("fed.new_trainer_s", rec.seconds("fed.new_trainer"))
	res.set("eval.cache_mb", mib(wd.ev.CacheBytes()))

	// Memory and allocator over the traced rounds.
	sv := tr.engine.Server()
	res.set("fed.upload_store_mb", mib(sv.UploadStoreBytes()))
	res.set("fed.elig_cache_mb", mib(sv.EligCacheBytes()))
	res.set("fed.graph_engine_mb", mib(sv.GraphEngineBytes()))
	res.set("go.live_heap_mb", mib(int64(live.HeapAlloc)))
	res.set("go.alloc_mb_per_round", mib(int64(after.TotalAlloc-before.TotalAlloc))/float64(rounds))
	res.set("go.gc_cycles_per_round", float64(after.NumGC-before.NumGC)/float64(rounds))
	res.set("go.gc_pause_ms_per_round", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/float64(rounds))

	// The networked run: the workload itself when it is networked, else the
	// fixed probe; either way its history must equal its in-process twin's.
	netW, netRounds, netTwin := w, rounds, twin
	if !w.networked {
		netW, netRounds = coordProbe, coordProbe.rounds
		probeWorld, err := netW.generate(seed, netRounds, nil, -1)
		if err != nil {
			return nil, err
		}
		if netTwin, err = runTwin(probeWorld, nil, -1); err != nil {
			return nil, err
		}
	}
	nt, err := runNetworkedTraced(netW, seed, netRounds, rec, root)
	if err != nil {
		return nil, err
	}
	res.check("networked_equals_in_process", sameHistory(nt.h, netTwin.h),
		"%s over loopback TCP vs Trainer.Run, %d rounds, digests %.12s / %.12s", netW.Name, netRounds, digestOf(nt.h), digestOf(netTwin.h))
	res.check("http_errors_zero", nt.httpErrors == 0, "%d transport errors or non-200 replies", nt.httpErrors)
	res.Failed += nt.httpErrors
	res.setTiming("coord.join_s", rec.seconds("coord.join"))
	uploadT := res.setTiming("coord.upload_req_s", rec.seconds("coord.upload_req"))
	res.set("coord.upload_req_tail_s", uploadT.Tail)
	res.set("coord.upload_reqs", float64(uploadT.N))
	pollT := res.setTiming("coord.poll_req_s", rec.seconds("coord.poll_req"))
	res.set("coord.poll_reqs", float64(pollT.N))
	res.set("coord.http_errors", float64(nt.httpErrors))
	res.set("coord.wire_in_bytes_per_round", float64(nt.wireIn)/float64(netRounds))
	res.set("coord.wire_out_bytes_per_round", float64(nt.wireOut)/float64(netRounds))
	res.set("coord.framing_overhead", float64(nt.wireIn+nt.wireOut)/float64(nt.h.TotalUploadBytes()+nt.h.TotalDisperseBytes()))
	res.set("coord.wire_overhead_s", (nt.wall-netTwin.wall)/float64(netRounds))

	if err := runProbes(res, wd, tr, procs, w.probeBudget); err != nil {
		return nil, err
	}
	rec.end(root)
	return rec.spans, nil
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// tracedRun is what the manual-halves run leaves behind for the probes.
type tracedRun struct {
	rounds []fed.RoundStats
	final  eval.Result
	engine *fed.RoundEngine
	wall   float64 // rounds plus the final evaluation, serial

	// latest is every participant's most recent upload and lastCohort the
	// final round's participants — the server's view of the interaction
	// structure, from which the graph probe rebuilds its state.
	latest     map[int][]comm.Prediction
	lastCohort []int
}

// tracedRounds runs the configured rounds serially through the two public
// halves — Select, the client fan-out over procs goroutines, CloseRound,
// Deliver, and Evaluate on evaluation rounds — with one fed.round span per
// round and one child span per call.
func tracedRounds(rec *recorder, parent int, wd *world, procs int) (*tracedRun, error) {
	cfg := wd.cfg
	host, err := fed.NewClientHost(wd.split, cfg)
	if err != nil {
		return nil, err
	}
	engine, err := fed.NewRoundEngine(wd.split.NumUsers, wd.split.NumItems, cfg)
	if err != nil {
		return nil, err
	}
	tr := &tracedRun{engine: engine, latest: make(map[int][]comm.Prediction)}
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		rs := rec.begin("fed.round", parent, round)

		id := rec.begin("fed.select", rs, round)
		idx := engine.Select(round)
		rec.end(id)

		wave := rec.begin("fed.client_wave", rs, round)
		outcomes := make([]fed.ClientOutcome, len(idx))
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					slot := int(next.Add(1)) - 1
					if slot >= len(idx) {
						return
					}
					c := rec.begin("fed.client_round", wave, round)
					outcomes[slot] = host.RunClientRound(round, idx[slot]).Outcome()
					rec.end(c)
				}
			}()
		}
		wg.Wait()
		rec.end(wave)

		id = rec.begin("fed.close_round", rs, round)
		stats, dispersals := engine.CloseRound(round, outcomes, nil)
		rec.end(id)

		id = rec.begin("fed.deliver", rs, round)
		for _, d := range dispersals {
			host.Deliver(d.ID, d.Preds)
		}
		rec.end(id)

		if cfg.EvalEvery > 0 && (round+1)%cfg.EvalEvery == 0 {
			id = rec.begin("fed.evaluate", rs, round)
			r := engine.Evaluate(wd.ev)
			rec.end(id)
			stats.Recall, stats.NDCG, stats.Evaluated = r.Recall, r.NDCG, true
		}
		rec.end(rs)
		tr.rounds = append(tr.rounds, stats)

		tr.lastCohort = tr.lastCohort[:0]
		for _, o := range outcomes {
			if !o.Dropped {
				tr.latest[o.ID] = o.Upload
				tr.lastCohort = append(tr.lastCohort, o.ID)
			}
		}
	}
	id := rec.begin("fed.final_evaluate", parent, -1)
	tr.final = engine.Evaluate(wd.ev)
	rec.end(id)
	tr.wall = time.Since(start).Seconds()
	return tr, nil
}

// twinRun is one plain Trainer.Run on a world: the single-process baseline.
type twinRun struct {
	h    *fed.History
	wall float64
}

func runTwin(wd *world, rec *recorder, parent int) (twinRun, error) {
	rd, err := setupInProcess(wd, rec, parent)
	if err != nil {
		return twinRun{}, err
	}
	id := rec.begin("fed.trainer_run", parent, -1)
	h, wall, _, err := rd.timed()
	rec.end(id)
	if err != nil {
		return twinRun{}, fmt.Errorf("twin run: %w", err)
	}
	return twinRun{h: h, wall: wall}, nil
}

func digestOf(h *fed.History) string {
	d, _ := historyDigest(h)
	return d
}

// sameHistory compares two traces bitwise: the digest covers every field of
// every round, the final evaluation and the mean attack score.
func sameHistory(a, b *fed.History) bool { return digestOf(a) == digestOf(b) }
