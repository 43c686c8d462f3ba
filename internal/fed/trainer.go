package fed

import (
	"context"
	"fmt"
	"time"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/par"
)

// RoundStats records one global round.
type RoundStats struct {
	Round        int
	Participants int
	Dropped      int     // clients that failed before uploading (FaultPlan)
	ClientLoss   float64 // mean local-training loss across participants
	ServerLoss   float64 // mean server batch loss
	AttackF1     float64 // mean Top Guess Attack F1 across uploads
	UploadBytes  int64   // total client→server bytes this round
	DispersBytes int64   // total server→client bytes this round
	Recall, NDCG float64 // server metrics (when evaluated)
	Evaluated    bool
}

// History is a full training run's trace.
type History struct {
	Rounds []RoundStats
	Final  eval.Result
	// MeanAttackF1 averages the attack over all rounds — the Table V figure.
	MeanAttackF1 float64
}

// NewHistory assembles a run's trace from its rounds and final evaluation:
// the one place MeanAttackF1 is computed (summed in round order, divided once;
// zero for a run of no rounds).
func NewHistory(rounds []RoundStats, final eval.Result) *History {
	h := &History{Rounds: rounds, Final: final}
	for _, rs := range rounds {
		h.MeanAttackF1 += rs.AttackF1
	}
	if len(rounds) > 0 {
		h.MeanAttackF1 /= float64(len(rounds))
	}
	return h
}

// PhaseSeconds is cumulative wall-clock per round phase — the per-phase
// breakdown the scalability experiment reports. It is deliberately kept out
// of RoundStats so timing jitter never enters the determinism contract on
// training traces.
type PhaseSeconds struct {
	ClientTrain float64 // parallel local training + upload construction
	Absorb      float64 // confidence counters
	GraphBuild  float64 // adjacency/CSR rebuild (graph server models only)
	ServerTrain float64 // server-side SGD (Eq. 5)
	Disperse    float64 // per-client D̃ᵢ construction
}

// Trainer orchestrates PTF-FedRec end to end (Algorithm 1), composing the
// two transport-agnostic halves in one process: a ClientHost running every
// user's client side and a RoundEngine running the server side. It is the
// deterministic reference the networked coordinator path is pinned against —
// same halves, loopback wire in between, bitwise-identical history.
type Trainer struct {
	cfg    Config
	split  *data.Split
	host   *ClientHost
	engine *RoundEngine

	// clientTrain is the ClientTrain phase: trainSlots adds each wave's
	// wall-clock, and waves never overlap. The server phases live in the
	// engine, which closes a round beside the next round's free wave.
	clientTrain float64

	// evaluator holds the split's evaluated-user list across rounds (nothing
	// per user: candidates are the complement of Split.Train[u]), built lazily
	// on the first evaluation. It is read-only after construction, so the server
	// and client evaluations — and an eval overlapped with dispersal — share it.
	evaluator *eval.Evaluator
}

// NewTrainer wires up one client per user and the hidden server model.
func NewTrainer(sp *data.Split, cfg Config) (*Trainer, error) {
	host, err := NewClientHost(sp, cfg)
	if err != nil {
		return nil, err
	}
	engine, err := NewRoundEngine(sp.NumUsers, sp.NumItems, cfg)
	if err != nil {
		return nil, err
	}
	return &Trainer{cfg: cfg, split: sp, host: host, engine: engine}, nil
}

// Clients exposes the participant list (tests, examples), materialising any
// clients not built yet.
func (t *Trainer) Clients() []*Client {
	for i := range t.host.clients {
		t.host.Client(i)
	}
	return t.host.clients
}

// Server exposes the server (tests, examples).
func (t *Trainer) Server() *Server { return t.engine.server }

// PhaseSeconds returns the cumulative per-phase wall-clock since construction.
func (t *Trainer) PhaseSeconds() PhaseSeconds {
	p := t.engine.phases
	p.ClientTrain = t.clientTrain
	return p
}

// RunRound executes Algorithm 1's loop body once, serially: sample the
// cohort, run every selected client's local round on the worker pool, close
// the round on the engine — evaluating it during its dispersal when
// Config.EvalDue asks — and deliver the dispersals. Calling it for rounds
// 0..Rounds-1 in order, then EvaluateServer, is Algorithm 1 as written, and
// produces the same History as Run's cross-round schedule.
func (t *Trainer) RunRound(round int) RoundStats {
	idx := t.engine.Select(round)
	outcomes := make([]ClientOutcome, len(idx))
	t.trainSlots(round, idx, outcomes, allSlots(len(idx)))
	stats, dispersals := t.engine.closeRound(round, outcomes, t.splitEvaluator)
	t.deliver(dispersals)
	return stats
}

// deliver hands every responder its D̃ᵢ.
func (t *Trainer) deliver(dispersals []Dispersal) {
	for _, d := range dispersals {
		t.host.Deliver(d.ID, d.Preds)
	}
}

// trainSlots runs the listed cohort slots' client rounds on the worker pool,
// each goroutine writing only its own outcome slot (so the round is
// deterministic for any worker count), and adds the wall-clock to the
// ClientTrain phase.
func (t *Trainer) trainSlots(round int, idx []int, outcomes []ClientOutcome, slots []int) {
	start := time.Now()
	par.For(len(slots), par.Workers(t.cfg.Workers), func(i int) {
		slot := slots[i]
		outcomes[slot] = t.host.RunClientRound(round, idx[slot]).Outcome()
	})
	t.clientTrain += time.Since(start).Seconds()
}

// allSlots lists every slot of an n-client cohort.
func allSlots(n int) []int {
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i
	}
	return slots
}

// Run executes the configured rounds and a final evaluation through
// RoundEngine.Run, with the clients on a Waves: collecting a round waits for
// its last wave, and publishing it delivers the dispersals — to round r's
// responders, none in round r+1's free wave training beside the server
// phases — and then releases round r+1's gated wave.
func (t *Trainer) Run() (*History, error) {
	waves := NewWaves()
	return t.engine.Run(context.Background(), t.splitEvaluator, func(round int, users []int) Collect {
		outcomes := make([]ClientOutcome, len(users))
		done, err := waves.Announce(round, users, func(slots []int) {
			t.trainSlots(round, users, outcomes, slots)
		})
		if err != nil {
			panic(err) // Run ends round r before it opens r+2
		}
		return func(context.Context) ([]ClientOutcome, error) {
			<-done
			return outcomes, nil
		}
	}, func(round int, dispersals []Dispersal) {
		t.deliver(dispersals)
		waves.End(round)
	})
}

// splitEvaluator returns the trainer's evaluator, building it on first use.
func (t *Trainer) splitEvaluator() *eval.Evaluator {
	return eval.LazyEvaluator(&t.evaluator, t.split)
}

// ShareEvaluator hands the trainer a prebuilt evaluator for its split. The
// evaluator is read-only after construction, so several trainers over the
// same split (e.g. a benchmark sweep) can share one; what each saves is one
// scan of Split.Test and an identity list, O(Users + NumItems). Call before
// the first evaluation; do not call mid-round.
func (t *Trainer) ShareEvaluator(e *eval.Evaluator) { t.evaluator = e }

// EvaluateServer measures the hidden model's ranking quality — the quantity
// Table III reports for PTF-FedRec. Evaluation fans out over
// Config.Workers workers (0 = GOMAXPROCS) with metrics identical for any
// worker count, reusing the trainer's cached candidate sets every round.
func (t *Trainer) EvaluateServer() eval.Result {
	return t.engine.Evaluate(t.splitEvaluator())
}

// String summarises a round for logs.
func (rs RoundStats) String() string {
	s := fmt.Sprintf("round %2d: clients=%d clientLoss=%.4f serverLoss=%.4f attackF1=%.3f up=%s down=%s",
		rs.Round, rs.Participants, rs.ClientLoss, rs.ServerLoss, rs.AttackF1,
		comm.FormatBytes(float64(rs.UploadBytes)), comm.FormatBytes(float64(rs.DispersBytes)))
	if rs.Evaluated {
		s += fmt.Sprintf(" recall@k=%.4f ndcg@k=%.4f", rs.Recall, rs.NDCG)
	}
	return s
}
