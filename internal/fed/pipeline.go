package fed

import "fmt"

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
// Waves is the one place that rule is applied. The in-process trainer
// (runPipelined) and the networked participant (coord.Participant.Run) both
// announce each round to it and tell it when a round has ended:
//
//	round r   : [ uploads r ][ absorb/graph/train/disperse r ][ deliver r ]
//	round r+1 :              [ free wave (∉ cohort(r)) trains ][ gated wave trains ]
//
// The free wave of r+1 trains while the server closes round r; the gated
// wave (cohort(r+1) ∩ cohort(r)) trains only after round r's deliveries
// land. Upload absorption still happens round by round in cohort slot order,
// so the History is bitwise-identical to the serial RunRound loop for every
// model kind, worker count, and fault plan (pinned by the pipeline
// invariance suite).

// Waves runs a sequence of rounds' client waves under the dependency rule.
// The free wave of an announced round is its users who were not in the
// previous announced round — or all of them once that round has ended, or
// when the previous announcement was not of the round before; the gated wave
// is everyone else, held until the previous round ends.
//
// Waves run one after another in launch order, each on its own goroutine
// waiting for its predecessor's to finish, so no two waves ever train the
// same user at once — not even when a straggler deadline closed a round
// while its clients were still training. Within a wave the train function
// brings its own parallelism.
//
// One goroutine drives a Waves: Announce, End and Wait are not safe for
// concurrent use.
type Waves struct {
	prevRound int          // the last announced round, -1 before the first
	prevUsers map[int]bool // its users
	ended     int          // the latest ended round, -1 before the first

	// held is the gated wave of round heldRound, waiting on round
	// heldRound-1's end; nil when no wave is held.
	held      func()
	heldRound int

	last chan struct{} // closed when the last launched wave has finished
}

// NewWaves returns a schedule with nothing announced.
func NewWaves() *Waves {
	return &Waves{prevRound: -1, prevUsers: map[int]bool{}, ended: -1}
}

// Announce launches round's free wave and holds its gated one. train runs a
// wave: it receives the wave's slots, ascending indices into users. Announce
// refuses a round while a gated wave is still held — the previous round must
// end before the next-but-one is announced — and then launches nothing.
func (w *Waves) Announce(round int, users []int, train func(slots []int)) error {
	if w.held != nil {
		return fmt.Errorf("fed: round %d announced while round %d's gated wave waits for round %d to end",
			round, w.heldRound, w.heldRound-1)
	}
	gate := w.prevRound == round-1 && w.ended < w.prevRound
	var free, gated []int
	for slot, u := range users {
		if gate && w.prevUsers[u] {
			gated = append(gated, slot)
		} else {
			free = append(free, slot)
		}
	}
	clear(w.prevUsers)
	for _, u := range users {
		w.prevUsers[u] = true
	}
	w.prevRound = round
	if len(free) > 0 {
		w.launch(func() { train(free) })
	}
	if len(gated) > 0 {
		w.held, w.heldRound = func() { train(gated) }, round
	}
	return nil
}

// End records that round has ended (its dispersals are delivered) and
// launches the gated wave that waited on it.
func (w *Waves) End(round int) {
	w.ended = max(w.ended, round)
	if w.held != nil && w.heldRound-1 <= round {
		w.launch(w.held)
		w.held = nil
	}
}

// Wait returns when every launched wave has finished.
func (w *Waves) Wait() {
	if w.last != nil {
		<-w.last
	}
}

// launch starts train once the previously launched wave has finished.
func (w *Waves) launch(train func()) {
	prev, done := w.last, make(chan struct{})
	w.last = done
	go func() {
		defer close(done)
		if prev != nil {
			<-prev
		}
		train()
	}()
}

// runPipelined executes the configured rounds through the cross-round
// pipeline and returns the per-round stats. Round r+1 is announced only once
// round r's cohort has trained, and round r ends before round r+2 is
// announced, so Announce never refuses.
func (t *Trainer) runPipelined() []RoundStats {
	rounds := make([]RoundStats, 0, t.cfg.Rounds)
	waves := NewWaves()
	announce := func(round int) []ClientOutcome {
		idx := t.engine.Select(round)
		outcomes := make([]ClientOutcome, len(idx))
		if err := waves.Announce(round, idx, func(slots []int) {
			t.trainSlots(round, idx, outcomes, slots)
		}); err != nil {
			panic(err)
		}
		return outcomes
	}

	next := announce(0)
	for r := 0; r < t.cfg.Rounds; r++ {
		waves.Wait()
		outcomes := next
		if r+1 < t.cfg.Rounds {
			next = announce(r + 1)
		}
		// Deliveries inside closeRound target round r's responders —
		// disjoint from the free wave's users (∉ cohort(r)), so they can
		// land mid-wave.
		stats, _ := t.closeRound(r, outcomes, t.cfg.EvalDue(r))
		rounds = append(rounds, stats)
		waves.End(r)
	}
	return rounds
}
