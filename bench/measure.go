package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"ptffedrec/internal/fed"
)

// setupReps is how many times the measured run sets the workload up; setup_s
// is the median, and the last set-up is the one that runs.
const setupReps = 5

// runMeasured is the tracing-off run: set the workload up from the seed,
// drive the product's default entry point for the configured rounds, and
// report the end-to-end metrics.
func runMeasured(w workload, seed uint64, seconds float64, res *result) error {
	rounds := w.roundsFor(seconds)
	res.Rounds = rounds

	var rd *ready
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if rd != nil {
			rd.close()
			rd = nil
		}
		// Return the previous set-up's memory before the next one allocates,
		// so the discarded repeats do not count toward peak_rss_mb.
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if rd, err = w.setup(seed, rounds, nil, nil, -1); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { rd.close() }()

	h, wall, cpu, err := rd.timed()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}

	cfg := rd.world.cfg
	perRound := cohort(cfg, rd.world.split.NumUsers)
	res.Attempted = rounds * perRound
	res.set("setup_s", median(setups))
	res.set("round_s", wall/float64(rounds))
	res.set("cpu_s_per_round", cpu/float64(rounds))
	res.set("peak_rss_mb", peakRSSMiB())
	res.set("wire_bytes_per_client_round", float64(rd.wireBytes(h))/float64(res.Attempted))
	res.set("final_ndcg", h.Final.NDCG)
	res.set("attack_f1", h.MeanAttackF1)
	res.HistorySHA256, res.RoundChain = historyDigest(h)

	checkHistory(res, h, cfg, perRound, rd.world.ev.Users())
	res.check("final_reproducible", sameResult(rd.reEvaluate(), h.Final),
		"re-ranking the final model must reproduce History.Final bitwise")
	// The floor is calibrated at the reference run length; a shorter run has
	// not trained long enough to owe it.
	if w.ndcgFloor > 0 && seconds >= refSeconds {
		res.check("ndcg_floor", h.Final.NDCG >= w.ndcgFloor, "final_ndcg %.4f, floor %.4f", h.Final.NDCG, w.ndcgFloor)
	}
	if rd.coord != nil {
		in, out := rd.coord.WireBytes()
		res.check("wire_carries_protocol", in >= h.TotalUploadBytes() && out >= h.TotalDisperseBytes(),
			"framed %d in / %d out, protocol %d up / %d down", in, out, h.TotalUploadBytes(), h.TotalDisperseBytes())
	}
	return nil
}

// checkHistory verifies what every fault-free run must satisfy: every round
// present with its full cohort, nobody dropped, evaluations where the config
// schedules them, scores in range, and the summary fields consistent with
// the per-round trace. Dropped clients count as failed operations.
func checkHistory(res *result, h *fed.History, cfg fed.Config, perRound, panel int) {
	ok := len(h.Rounds) == cfg.Rounds
	var f1 float64
	for i, rs := range h.Rounds {
		res.Failed += rs.Dropped
		evalDue := cfg.EvalEvery > 0 && (i+1)%cfg.EvalEvery == 0
		ok = ok && rs.Round == i && rs.Participants == perRound && rs.Evaluated == evalDue &&
			unit(rs.AttackF1) && unit(rs.NDCG) && unit(rs.Recall) &&
			rs.UploadBytes > 0 && rs.DispersBytes > 0 &&
			!math.IsNaN(rs.ClientLoss) && !math.IsNaN(rs.ServerLoss)
		f1 += rs.AttackF1
	}
	res.check("history_shape", ok, "%d rounds of %d clients, evaluated every %d", cfg.Rounds, perRound, cfg.EvalEvery)
	res.check("failed_share_zero", res.Failed == 0, "%d of %d client-rounds dropped", res.Failed, res.Attempted)
	res.check("history_summary", h.Final.Users == panel && unit(h.Final.NDCG) && h.Final.NDCG > 0 &&
		len(h.Rounds) > 0 && math.Abs(h.MeanAttackF1-f1/float64(len(h.Rounds))) < 1e-12,
		"final over %d users (panel %d), ndcg %.4f, mean attack F1 %.4f", h.Final.Users, panel, h.Final.NDCG, h.MeanAttackF1)
}

// unit reports whether v is a number in [0, 1].
func unit(v float64) bool { return v >= 0 && v <= 1 }
