// Package baselines implements the three parameter-transmission federated
// recommenders the paper compares against (Table III/IV):
//
//   - FCF (Ammad-ud-din et al., 2019): FedAvg over a shared item-embedding
//     matrix, private per-client user vectors.
//   - FedMF (Chai et al., 2020): the same factorization, but item gradients
//     travel as packed Paillier ciphertexts, which is what blows its
//     communication budget up in Table IV.
//   - MetaMF (Lin et al., 2020): a server-side meta-network generates
//     personalized item embeddings per user; clients hold only a private
//     user vector.
//
// All three transmit model parameters (or their encrypted gradients), which
// is exactly the behaviour PTF-FedRec removes. Nothing here is encoded: every
// cohort member moves the same payload each round, so a baseline's Table IV
// cell is that payload, down plus up, computed once at construction.
package baselines

import (
	"fmt"
	"math"

	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/models"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/par"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// Config carries the shared baseline hyper-parameters (§IV-D: the baselines
// are "reproduced based on their papers" with the common dim-32 / Adam-1e-3
// setting; local epochs match the PTF clients). Every client samples
// data.NegRatio negatives per positive, and Evaluate ranks at eval.K.
type Config struct {
	Rounds         int
	LocalEpochs    int
	Dim            int
	LR             float64
	ClientFraction float64
	Workers        int
	Seed           uint64
}

// FedMF's Paillier key and packing, which size its ciphertexts.
const (
	paillierKeyBits  = 2048 // modulus bits
	paillierSlotBits = 256  // packed slot width
)

// MetaMF's collaborative vector size and meta-network hidden width.
const (
	cvDim      = 16
	metaHidden = 32
)

// DefaultConfig mirrors §IV-D for the baselines.
func DefaultConfig() Config {
	return Config{
		Rounds:         20,
		LocalEpochs:    5,
		Dim:            32,
		LR:             1e-3,
		ClientFraction: 1.0,
		Seed:           1,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("baselines: Rounds = %d", c.Rounds)
	case c.LocalEpochs <= 0:
		return fmt.Errorf("baselines: LocalEpochs = %d", c.LocalEpochs)
	case c.Dim <= 0:
		return fmt.Errorf("baselines: Dim = %d", c.Dim)
	// The negated comparisons reject NaN: a NaN fraction selects one client
	// a round, and a learning rate that is not a finite positive number
	// trains away from the loss or to NaN.
	case !(c.ClientFraction > 0 && c.ClientFraction <= 1):
		return fmt.Errorf("baselines: ClientFraction = %v", c.ClientFraction)
	case !(c.LR > 0 && c.LR <= math.MaxFloat64):
		return fmt.Errorf("baselines: LR = %v", c.LR)
	}
	return nil
}

// adamVec is a per-client Adam optimizer over one private vector (the user
// embedding that never leaves the device).
type adamVec struct {
	w, m, v []float64
	t       int
	lr      float64
}

func newAdamVec(s *rng.Stream, dim int, lr float64) *adamVec {
	a := &adamVec{w: make([]float64, dim), m: make([]float64, dim), v: make([]float64, dim), lr: lr}
	for i := range a.w {
		a.w[i] = s.Normal(0, 0.1)
	}
	return a
}

// step applies one Adam step with gradient g and zeroes g.
func (a *adamVec) step(g []float64) {
	a.t++
	s := tensor.NewAdamStep(a.lr, a.t, false)
	tensor.AdamUpdate(a.w, a.m, a.v, g, &s)
}

// localSamples builds user u's round-t training set: hard positives plus
// freshly sampled negatives at the paper's ratio.
func localSamples(sp *data.Split, s *rng.Stream, u int) []models.Sample {
	out := make([]models.Sample, 0, len(sp.Train[u])*(1+data.NegRatio))
	for _, v := range sp.Train[u] {
		out = append(out, models.Sample{User: u, Item: v, Label: 1})
	}
	for _, v := range sp.SampleNegativesN(s, u, len(sp.Train[u])*data.NegRatio) {
		out = append(out, models.Sample{User: u, Item: v, Label: 0})
	}
	return out
}

// FederatedBaseline is the contract the experiment harness drives.
type FederatedBaseline interface {
	RunRound(round int)
	Rounds() int
	Evaluate() eval.Result
	AvgBytesPerClientPerRound() float64
}

// Run executes every configured round of a baseline.
func Run(b FederatedBaseline) {
	for r := 0; r < b.Rounds(); r++ {
		b.RunRound(r)
	}
}

// federation is what the three baselines share: the per-round cohort, every
// client's private Adam-trained user vector, and the local step a client takes
// against whatever item matrix the server ships it. What differs per
// baseline — the matrix a client receives and how the server folds the
// uploaded gradients in — is passed to round; its payload size is set in
// clientRoundBytes by its constructor.
type federation struct {
	cfg   Config
	split *data.Split
	users []*adamVec // private per-client vectors (live on devices)
	root  *rng.Stream

	// clientRoundBytes is what one cohort member downloads plus uploads in
	// one round: Table IV's cell.
	clientRoundBytes int

	// evaluator holds the split's evaluated-user list across Evaluate calls.
	evaluator *eval.Evaluator
}

// newFederation validates cfg and builds the client side; stream names the
// baseline's root rng stream.
func newFederation(sp *data.Split, cfg Config, stream string) (*federation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &federation{cfg: cfg, split: sp, root: rng.New(cfg.Seed).Derive(stream)}
	for u := 0; u < sp.NumUsers; u++ {
		f.users = append(f.users, newAdamVec(f.root.DeriveN("user", u), cfg.Dim, cfg.LR))
	}
	return f, nil
}

// Rounds implements FederatedBaseline.
func (f *federation) Rounds() int { return f.cfg.Rounds }

// AvgBytesPerClientPerRound implements FederatedBaseline.
func (f *federation) AvgBytesPerClientPerRound() float64 { return float64(f.clientRoundBytes) }

// round runs one global round: the selected cohort fans out over the worker
// pool, each client downloading itemsFor(u), training its private vector
// against it and uploading a dense V×d item-gradient block; aggregate then
// folds the blocks, which arrive in cohort order whatever the worker count,
// into the server's state.
func (f *federation) round(round int, itemsFor func(u int) *tensor.Matrix, aggregate func(cohort []int, grads [][]float64)) {
	n := max(1, int(f.cfg.ClientFraction*float64(f.split.NumUsers)))
	cohort := f.root.DeriveN("select", round).SampleInts(f.split.NumUsers, n)
	grads := make([][]float64, len(cohort))
	par.For(len(cohort), par.Workers(f.cfg.Workers), func(slot int) {
		u := cohort[slot]
		grads[slot] = f.clientUpdate(u, round, itemsFor(u))
	})
	aggregate(cohort, grads)
}

// clientUpdate trains user u's private vector locally against the item
// matrix q and returns the dense item-gradient block it uploads.
func (f *federation) clientUpdate(u, round int, q *tensor.Matrix) []float64 {
	s := f.root.DeriveN("clientrng", u).DeriveN("round", round)
	dim := f.cfg.Dim
	grad := make([]float64, f.split.NumItems*dim)
	p := f.users[u]
	du := make([]float64, dim)
	for e := 0; e < f.cfg.LocalEpochs; e++ {
		samples := localSamples(f.split, s, u)
		s.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		for _, smp := range samples {
			qv := q.Row(smp.Item)
			pred := nn.Sigmoid(tensor.Dot(p.w, qv))
			g := pred - smp.Label
			for k := 0; k < dim; k++ {
				du[k] = g * qv[k]
				grad[smp.Item*dim+k] += g * p.w[k]
			}
			p.step(du)
		}
	}
	return grad
}

// rank evaluates a scorer on the split's held-out items over the configured
// workers.
func (f *federation) rank(scorer models.MultiBlockScorer) eval.Result {
	return eval.LazyEvaluator(&f.evaluator, f.split).Rank(scorer, eval.K, f.cfg.Workers)
}

// sharedItems is the federation FCF and FedMF both are: the server owns one
// public V×d item matrix, broadcasts it every round and updates it from the
// clients' dense item gradients. The two differ only in transport — how large
// the payload is on the wire and how the server aggregates it.
type sharedItems struct {
	*federation
	items     *tensor.Matrix
	aggregate func(cohort []int, grads [][]float64)
}

func newSharedItems(sp *data.Split, cfg Config, stream string) (*sharedItems, error) {
	f, err := newFederation(sp, cfg, stream)
	if err != nil {
		return nil, err
	}
	items := tensor.New(sp.NumItems, cfg.Dim)
	nn.Normal(f.root.Derive("items"), items, 0.1)
	return &sharedItems{federation: f, items: items}, nil
}

// RunRound implements FederatedBaseline.
func (s *sharedItems) RunRound(round int) {
	s.round(round, func(int) *tensor.Matrix { return s.items }, s.aggregate)
}

// Evaluate implements FederatedBaseline.
func (s *sharedItems) Evaluate() eval.Result { return s.rank(s) }

// ScoreUsersBlockLogitsInto implements models.MultiBlockScorer: each user's
// private vector dotted with the shared item rows.
func (s *sharedItems) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users, items []int) {
	for i, u := range users {
		row := dst.Row(i)
		for j, v := range items {
			row[j] = tensor.Dot(s.users[u].w, s.items.Row(v))
		}
	}
}
