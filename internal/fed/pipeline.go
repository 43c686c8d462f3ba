package fed

import "runtime"

// Cross-round pipelined execution. Algorithm 1 as written serializes rounds
// end to end — select → client train → absorb/train/disperse → deliver —
// even though the dependency structure is far sparser: Select is a
// pure function of (seed, round), so round r+1's cohort is known before
// round r closes, and a client u in cohort(r+1) depends on round r only
// through the dispersal D̃ᵤ it receives there — which it receives iff
// u ∈ cohort(r). Everything u's round-(r+1) local step reads is otherwise
// client-local (its model, its split rows, its pure per-(round, client)
// streams), and the server phases never touch client state.
//
// runPipelined exploits that with a two-round double buffer:
//
//	round r   : [ uploads r ][ absorb/graph/train/disperse r ][ deliver r ]
//	round r+1 :              [ free wave (∉ cohort(r)) trains ][ gated wave trains ]
//
// The free wave of r+1 trains on the worker pool while the server closes
// round r; the gated wave (cohort(r+1) ∩ cohort(r)) trains only after round
// r's deliveries land. Upload absorption still happens round by round in
// cohort slot order, so the History is bitwise-identical to the serial
// RunRound loop for every model kind, worker count, and fault plan (pinned by
// the pipeline invariance suite).
//
// On a single-core host the free wave runs inline before the server phases
// instead of on a goroutine — same order-independence argument, none of the
// time-slicing overhead (the GOMAXPROCS gate that PR 8 gave the eval
// overlap).

// runPipelined executes the configured rounds through the cross-round
// pipeline and returns the per-round stats.
func (t *Trainer) runPipelined() []RoundStats {
	rounds := make([]RoundStats, 0, t.cfg.Rounds)

	// mark[u] == r+1 records u ∈ cohort(r); generation stamping avoids
	// clearing between rounds. int32 keeps the 1M-user footprint at 4 MB.
	mark := make([]int32, t.split.NumUsers)

	idx := t.engine.Select(0)
	for _, u := range idx {
		mark[u] = 1
	}
	outcomes := make([]ClientOutcome, len(idx))
	t.phases.ClientTrain += t.trainSlots(0, idx, outcomes, allSlots(len(idx)))

	concurrent := runtime.GOMAXPROCS(0) > 1
	for r := 0; r < t.cfg.Rounds; r++ {
		// Partition round r+1's cohort before closing round r: slots whose
		// user sat out round r have no inbound dispersal and train now.
		var nextIdx []int
		var nextOutcomes []ClientOutcome
		var freeSlots, gatedSlots []int
		var freeDone chan struct{}
		var freeSecs float64
		if r+1 < t.cfg.Rounds {
			nextIdx = t.engine.Select(r + 1)
			nextOutcomes = make([]ClientOutcome, len(nextIdx))
			for slot, u := range nextIdx {
				if mark[u] == int32(r+1) {
					gatedSlots = append(gatedSlots, slot)
				} else {
					freeSlots = append(freeSlots, slot)
				}
				mark[u] = int32(r + 2)
			}
			if concurrent && len(freeSlots) > 0 {
				// The main goroutine folds the wave's wall into the shared
				// phase totals after the join — CloseRound writes t.phases
				// concurrently.
				freeDone = make(chan struct{})
				go func() {
					freeSecs = t.trainSlots(r+1, nextIdx, nextOutcomes, freeSlots)
					close(freeDone)
				}()
			} else {
				freeSecs = t.trainSlots(r+1, nextIdx, nextOutcomes, freeSlots)
			}
		}

		// Deliveries inside closeRound target round r's responders —
		// disjoint from the free wave's users (∉ cohort(r)), so they can
		// land mid-wave.
		withEval := t.cfg.EvalEvery > 0 && (r+1)%t.cfg.EvalEvery == 0
		stats, _ := t.closeRound(r, outcomes, withEval)
		rounds = append(rounds, stats)

		if freeDone != nil {
			<-freeDone
		}
		t.phases.ClientTrain += freeSecs + t.trainSlots(r+1, nextIdx, nextOutcomes, gatedSlots)
		idx, outcomes = nextIdx, nextOutcomes
	}
	return rounds
}
