package fed

import (
	"context"
	"time"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/models"
	"ptffedrec/internal/par"
	"ptffedrec/internal/rng"
)

// ClientOutcome is what the server observes from one selected client slot
// after the transport has had its say: the (possibly truncated) upload it
// received, the bytes that crossed the wire, and the client's self-reported
// loss and attack score — or Dropped if nothing arrived at all.
type ClientOutcome struct {
	ID          int
	Upload      []comm.Prediction
	UploadBytes int
	Loss        float64
	AttackF1    float64
	Dropped     bool
}

// Dispersal is one client's D̃ᵢ leaving the server: the canonical wire
// payload plus its decoded form. Preds is exactly what a faithful receiver
// decodes from Payload, so in-process delivery and network delivery hand the
// client identical values.
type Dispersal struct {
	ID      int
	Preds   []comm.Prediction
	Payload []byte
}

// RoundEngine is the server side of Algorithm 1's loop body with the
// transport abstracted away: it selects the round's cohort, absorbs whatever
// outcomes the transport gathered, trains the hidden model, and produces the
// dispersals. The in-process Trainer and the networked coordinator both run
// rounds through this engine, so the two paths share one deterministic
// implementation — identical outcomes in produce identical histories and
// dispersals out, bitwise, for any worker count.
type RoundEngine struct {
	cfg      Config
	numUsers int
	server   *Server
	root     *rng.Stream
	phases   PhaseSeconds // the server phases; ClientTrain stays zero
}

// NewRoundEngine builds the server-side engine for a numUsers × numItems
// universe. The rng root derives purely from cfg.Seed with the same recipe
// the client hosts use, so an engine and a host constructed apart — even in
// different processes — consume identical streams.
func NewRoundEngine(numUsers, numItems int, cfg Config) (*RoundEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &RoundEngine{
		cfg:      cfg,
		numUsers: numUsers,
		root:     rng.New(cfg.Seed).Derive("ptf-fedrec"),
	}
	server, err := newServer(numUsers, numItems, &e.cfg, e.root)
	if err != nil {
		return nil, err
	}
	e.server = server
	return e, nil
}

// Server exposes the hidden server model and its state.
func (e *RoundEngine) Server() *Server { return e.server }

// Select samples the round's cohort Uᵗ. Selection is a pure function of
// (seed, round), so a coordinator and an observer agree on every round's
// cohort without communicating.
func (e *RoundEngine) Select(round int) []int {
	sel := e.root.DeriveN("select", round)
	n := int(e.cfg.ClientFraction * float64(e.numUsers))
	if n < 1 {
		n = 1
	}
	return sel.SampleInts(e.numUsers, n)
}

// Evaluate ranks the hidden server model through ev — the quantity Table III
// reports for PTF-FedRec.
func (e *RoundEngine) Evaluate(ev *eval.Evaluator) eval.Result {
	return ev.Rank(e.server.model, e.cfg.EvalK, e.cfg.Workers)
}

// Collect waits for an opened round's cohort and returns its outcomes in
// Select's slot order.
type Collect func(ctx context.Context) ([]ClientOutcome, error)

// Run is the server side of the round schedule for any transport: open starts
// a round's cohort and publish hands back a closed round. Round r+1 is opened
// before round r is collected (Select is a pure function of the seed), so a
// transport can train its dependency-free clients while round r collects and
// closes. For each round r, Run collects r, closes it, publishes it and opens
// r+2; after the last it evaluates through evaluator and returns the History.
// A collect error ends the run.
func (e *RoundEngine) Run(ctx context.Context, evaluator func() *eval.Evaluator,
	open func(round int, users []int) Collect, publish func(round int, dispersals []Dispersal)) (*History, error) {
	collects := make([]Collect, e.cfg.Rounds)
	for r := range min(2, e.cfg.Rounds) {
		collects[r] = open(r, e.Select(r))
	}
	rounds := make([]RoundStats, 0, e.cfg.Rounds)
	for r := range collects {
		outcomes, err := collects[r](ctx)
		if err != nil {
			return nil, err
		}
		stats, dispersals := e.closeRound(r, outcomes, evaluator)
		publish(r, dispersals)
		rounds = append(rounds, stats)
		if r+2 < e.cfg.Rounds {
			collects[r+2] = open(r+2, e.Select(r+2))
		}
	}
	return NewHistory(rounds, e.Evaluate(evaluator())), nil
}

// closeRound is CloseRound evaluating, when Config.EvalDue asks, through
// evaluator during the dispersal — both only read the frozen server model —
// with Recall/NDCG in the stats.
func (e *RoundEngine) closeRound(round int, outcomes []ClientOutcome, evaluator func() *eval.Evaluator) (RoundStats, []Dispersal) {
	if !e.cfg.EvalDue(round) {
		return e.CloseRound(round, outcomes, nil)
	}
	var res eval.Result
	stats, dispersals := e.CloseRound(round, outcomes, func() { res = e.Evaluate(evaluator()) })
	stats.Recall, stats.NDCG, stats.Evaluated = res.Recall, res.NDCG, true
	return stats, dispersals
}

// CloseRound finishes round `round` from the transport-gathered outcomes
// (slot order must match Select's cohort order — the determinism contract):
// absorb the uploads, rebuild the graph, optimise Eq. 5, and build every
// responder's dispersal. The returned dispersals are in responder slot order.
//
// A responder is an outcome that is not Dropped and carries a non-empty
// upload: an empty upload counts as a drop — no loss or attack F1 in the
// round's means, and no dispersal — exactly as the networked coordinator
// classifies a stream that carried no prediction. Eq. 9's exclusion set V̂ᵗᵢ
// is the responder's upload in this round: a dispersal is relative to the
// round that produced it, even when the transport delivers it after the
// user's next upload.
//
// The outcomes must name distinct users, and every prediction in an upload
// must name its outcome's user and an item in [0, NumItems), each item at
// most once: the graph rebuild stages each uploader once, in user order, from
// the upload alone, and nothing downstream filters or de-duplicates an item.
// In-process, Select's cohort and the client round guarantee both; the
// networked coordinator refuses an upload that breaks the second before it
// becomes an outcome.
//
// A non-nil overlap runs concurrently with the dispersal phase — Run passes a
// due round's server evaluation, which after the shared warm step is a pure
// read of the frozen model. CloseRound returns only after overlap finishes.
func (e *RoundEngine) CloseRound(round int, outcomes []ClientOutcome, overlap func()) (RoundStats, []Dispersal) {
	workers := par.Workers(e.cfg.Workers)
	stats := RoundStats{Round: round, Participants: len(outcomes)}
	ids := make([]int, 0, len(outcomes)) // responders, in slot order
	uploads := make([][]comm.Prediction, 0, len(outcomes))
	for _, o := range outcomes {
		if o.Dropped || len(o.Upload) == 0 {
			stats.Dropped++
			continue
		}
		ids = append(ids, o.ID)
		uploads = append(uploads, o.Upload)
		stats.ClientLoss += o.Loss
		stats.AttackF1 += o.AttackF1
		stats.UploadBytes += int64(o.UploadBytes)
	}
	if len(ids) > 0 {
		stats.ClientLoss /= float64(len(ids))
		stats.AttackF1 /= float64(len(ids))
	}

	// Server-side: absorb uploads, rebuild the graph, optimise Eq. 5. Absorb,
	// the graph staging and the training-set flatten are serial passes over
	// the uploads; the graph commit shards its install over the round pool,
	// and inside every server TrainBatch the gradient workspace engine shards
	// over the same pool size with a chunk-ordered merge. The graph rebuild
	// takes the uploads too: they are exactly the graph's delta.
	phaseStart := time.Now()
	e.server.absorb(uploads)
	e.phases.Absorb += time.Since(phaseStart).Seconds()

	phaseStart = time.Now()
	e.server.rebuildGraph(uploads, workers)
	e.phases.GraphBuild += time.Since(phaseStart).Seconds()

	phaseStart = time.Now()
	stats.ServerLoss = e.server.train(uploads)
	e.phases.ServerTrain += time.Since(phaseStart).Seconds()

	// Dispersal: the global confidence ranking is computed once for the
	// round; each client draws from a stream derived per (round, client), and
	// dispersal only reads server state (plus per-worker scratch), so results
	// match the serial loop exactly. The Eq. 9 exclusion set V̂ᵗᵢ is the
	// responder's upload in this round — what the server actually received —
	// so a networked server needs nothing the wire did not carry.
	phaseStart = time.Now()
	var overlapDone chan struct{}
	// Warm before an overlapped eval unconditionally; otherwise only a
	// parallel dispersal with work to do needs the shared caches hot.
	// Warming is idempotent and bitwise-neutral either way.
	if w, ok := e.server.model.(models.Warmer); ok && (overlap != nil || (workers > 1 && len(ids) > 0)) {
		w.WarmScoring()
	}
	if overlap != nil {
		overlapDone = make(chan struct{})
		go func() {
			defer close(overlapDone)
			overlap()
		}()
	}
	dispersals := make([]Dispersal, len(ids))
	if len(ids) > 0 {
		plan := e.server.buildDispersalPlan()
		// Per-client streams are only consumed by the random ablation arms,
		// and deriving one costs a full generator seeding — so the
		// deterministic conf+hard arm skips them entirely, and the random
		// arms derive the round-level parent once. Both are bitwise-neutral:
		// derivation is a pure function of the parent's immutable seed (safe
		// to share across workers), and an unused stream influences nothing.
		var roundStream *rng.Stream
		if disperseNeedsStreams(&e.cfg) {
			roundStream = e.root.DeriveN("disperse", round)
		}
		clientStream := func(id int) *rng.Stream {
			if roundStream == nil {
				return nil
			}
			return roundStream.DeriveN("client", id)
		}
		chunk := (len(ids) + workers - 1) / workers
		par.ForChunks(len(ids), chunk, workers, func(lo, hi int) {
			e.server.disperseUsers(ids[lo:hi], uploads[lo:hi], plan, clientStream, func(i int, out []comm.Prediction) {
				payload, preds := wireRoundTrip(out)
				dispersals[lo+i] = Dispersal{ID: ids[lo+i], Preds: preds, Payload: payload}
			})
		})
	}
	for _, d := range dispersals {
		stats.DispersBytes += int64(len(d.Payload))
	}
	e.phases.Disperse += time.Since(phaseStart).Seconds()
	if overlapDone != nil {
		<-overlapDone
	}
	return stats, dispersals
}
