package fed

import (
	"sync"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/privacy"
	"ptffedrec/internal/rng"
)

// ClientHost runs the client side of the protocol for a set of users: local
// training, wire encoding, the client-side fault draws, and dispersal
// delivery. It is the transport-agnostic half the in-process Trainer and the
// networked Participant share — both drive the exact same per-(round, user)
// computation, so the networked path reproduces the in-process history
// bitwise. Everything a host owns derives purely from (config, split), which
// is what lets a remote participant reconstruct its clients from nothing but
// the coordinator's join acknowledgement.
//
// Concurrency: calls for distinct users touch distinct clients, so a worker
// pool may run RunClientRound/Deliver for different users concurrently. Two
// calls for the same user must not overlap (the round engines never do that).
type ClientHost struct {
	cfg     Config
	split   *data.Split
	root    *rng.Stream
	clients []*Client
}

// guessBuffers lends each client round the Top Guess Attack's scratch. It is
// shared by every host: a pool inside a host would keep the host reachable
// from the runtime's pool list for a collection after its last use.
var guessBuffers = sync.Pool{New: func() any { return new(privacy.GuessBuffer) }}

// NewClientHost wires up the client side for every user in the split. Each
// client materialises on its first participation (Client); only client 0 is
// built here, so an invalid client-model kind still fails at construction
// instead of mid-round.
func NewClientHost(sp *data.Split, cfg Config) (*ClientHost, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &ClientHost{
		cfg:     cfg,
		split:   sp,
		root:    rng.New(cfg.Seed).Derive("ptf-fedrec"),
		clients: make([]*Client, sp.NumUsers),
	}
	if sp.NumUsers > 0 {
		c, err := newClient(0, sp.Train[0], sp.NumItems, &h.cfg, h.root)
		if err != nil {
			return nil, err
		}
		h.clients[0] = c
	}
	return h, nil
}

// Client returns the host's client for user id, constructing it on first
// use. Construction order cannot change a bit: everything a client owns
// derives purely from (config, split, id) — its streams come from DeriveN on
// the immutable root seed, never from shared generator state. Concurrent
// calls for distinct ids write distinct slots and the round/eval engines
// never hand one id to two workers, so no synchronisation is needed.
func (h *ClientHost) Client(id int) *Client {
	c := h.clients[id]
	if c == nil {
		var err error
		c, err = newClient(id, h.split.Train[id], h.split.NumItems, &h.cfg, h.root)
		if err != nil {
			// Construction can only fail on an invalid model kind, which
			// NewClientHost's client 0 already validated.
			panic(err)
		}
		h.clients[id] = c
	}
	return c
}

// Split returns the host's dataset split.
func (h *ClientHost) Split() *data.Split { return h.split }

// ClientRoundResult is one user's full client-side round output, before any
// transport decides how much of it reaches the server. Preds is the
// wire-decoded upload (what a faithful receiver reconstructs from Payload);
// SendPreds/SendBytes bound the prefix that actually goes out — less than the
// whole upload only under FaultPlan truncation. Loss and AttackF1 are
// computed on the full upload, mirroring the in-process engine (a truncated
// client trained and self-scored before its connection died).
type ClientRoundResult struct {
	ID        int
	Dropped   bool
	Payload   []byte            // canonical wire encoding of the full upload
	Preds     []comm.Prediction // Payload decoded
	SendPreds int               // predictions actually transmitted (≤ len(Preds))
	SendBytes int               // bytes actually transmitted (= SendPreds × 12)
	Loss      float64
	AttackF1  float64
}

// Outcome folds the result into what the server observes: a dropped client
// contributes nothing, a truncated one only its transmitted prefix. Decoding
// a payload prefix equals the prefix of the decoded payload (the format is
// element-wise), so this is exactly what a receiver of WirePayload sees.
func (r ClientRoundResult) Outcome() ClientOutcome {
	if r.Dropped {
		return ClientOutcome{ID: r.ID, Dropped: true}
	}
	return ClientOutcome{
		ID:          r.ID,
		Upload:      r.Preds[:r.SendPreds],
		UploadBytes: r.SendBytes,
		Loss:        r.Loss,
		AttackF1:    r.AttackF1,
	}
}

// WirePayload returns the bytes that actually cross the transport — the
// canonical encoding truncated to the transmitted prefix.
func (r ClientRoundResult) WirePayload() []byte { return r.Payload[:r.SendBytes] }

// RunClientRound executes user id's side of one round: the fault dropout
// draw, local training (negatives drawn from the split by the shared
// recipe), wire encoding, the attack self-score, and the truncation draw.
// The rng consumption order is the determinism contract: dropout before
// training, truncation after the attack — identical to the historical
// in-process round loop.
func (h *ClientHost) RunClientRound(round, id int) ClientRoundResult {
	c := h.Client(id)
	var fs *rng.Stream
	if h.cfg.Faults.enabled() {
		fs = h.root.DeriveN("fault", round).DeriveN("client", id)
		if fs.Bernoulli(h.cfg.Faults.DropoutRate) {
			// A dropped client burns its local compute but nothing reaches
			// the server.
			return ClientRoundResult{ID: id, Dropped: true}
		}
	}
	upload, loss := c.localTrain(func(n int) []int {
		return h.split.SampleNegativesN(c.s.DeriveN("negs", round), c.ID, n)
	})
	payload, preds := wireRoundTrip(upload)
	// The curious-but-honest server's inference attempt, scored against
	// ground truth for Table V / Fig. 3 — on the wire-decoded upload, since
	// that is what the server sees.
	buf := guessBuffers.Get().(*privacy.GuessBuffer)
	f1 := privacy.AttackF1(preds, privacy.TopGuessAttack(buf, preds, h.cfg.AttackPosFraction), c.isPositive)
	guessBuffers.Put(buf)
	send := len(preds)
	if fs != nil && fs.Bernoulli(h.cfg.Faults.TruncateRate) && len(preds) > 1 {
		// Short write: the connection dies mid-upload and the server keeps
		// the received prefix.
		send = len(preds) / 2
	}
	return ClientRoundResult{
		ID:        id,
		Payload:   payload,
		Preds:     preds,
		SendPreds: send,
		SendBytes: send * comm.PredictionWireSize,
		Loss:      loss,
		AttackF1:  f1,
	}
}

// Deliver hands user id the server's dispersed D̃ᵢ (already wire-decoded).
func (h *ClientHost) Deliver(id int, preds []comm.Prediction) {
	h.Client(id).receiveDispersal(preds)
}

// wireRoundTrip encodes predictions and decodes them back, returning the
// canonical payload and what a receiver decodes from it. Training proceeds on
// the decoded values on both sides of the wire — the float32 round trip — so
// the in-process engine and the networked path see identical floats.
// Encoding a decoded payload reproduces it byte for byte (the idempotence
// FuzzDecodePredictions pins), so the coordinator forwards canonical payloads
// without re-encoding drift.
func wireRoundTrip(preds []comm.Prediction) ([]byte, []comm.Prediction) {
	payload := comm.EncodePredictions(preds)
	decoded, err := comm.DecodePredictions(payload)
	if err != nil {
		// Encoding our own payload cannot fail to decode; a failure here is
		// a bug in the format.
		panic(err)
	}
	return payload, decoded
}
