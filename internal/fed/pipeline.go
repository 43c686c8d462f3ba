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
// Waves is the one place that rule is applied, on the client side: the
// in-process trainer (Trainer.Run) and the networked participant
// (coord.Participant.Run) both announce each round to it and tell it when a
// round has ended. RoundEngine.Run owns the server side — it opens round r+1
// before collecting round r, and closes, evaluates and publishes each round —
// for the trainer and the networked coordinator alike:
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

	// held launches the gated wave of round heldRound, waiting on round
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
// wave: it receives the wave's slots, ascending indices into users. The
// returned channel closes once the round's last wave has trained — at once
// for a round with no users. Waves run in launch order, so then the whole
// round has trained. Announce refuses a round while a gated wave is still
// held — the previous round must end before the next-but-one is announced —
// and then launches nothing.
func (w *Waves) Announce(round int, users []int, train func(slots []int)) (<-chan struct{}, error) {
	if w.held != nil {
		return nil, fmt.Errorf("fed: round %d announced while round %d's gated wave waits for round %d to end",
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
	done := make(chan struct{})
	switch {
	case len(gated) > 0:
		if len(free) > 0 {
			w.launch(func() { train(free) }, make(chan struct{}))
		}
		w.held, w.heldRound = func() { w.launch(func() { train(gated) }, done) }, round
	case len(free) > 0:
		w.launch(func() { train(free) }, done)
	default:
		close(done)
	}
	return done, nil
}

// End records that round has ended (its dispersals are delivered) and
// launches the gated wave that waited on it.
func (w *Waves) End(round int) {
	w.ended = max(w.ended, round)
	if w.held != nil && w.heldRound-1 <= round {
		w.held()
		w.held = nil
	}
}

// Wait returns when every launched wave has finished.
func (w *Waves) Wait() {
	if w.last != nil {
		<-w.last
	}
}

// launch starts train once the previously launched wave has finished, and
// closes done when train returns.
func (w *Waves) launch(train func(), done chan struct{}) {
	prev := w.last
	w.last = done
	go func() {
		defer close(done)
		if prev != nil {
			<-prev
		}
		train()
	}()
}
