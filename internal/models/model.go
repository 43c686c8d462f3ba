// Package models implements the recommendation models used in the paper:
// NeuMF (matrix-factorization family, Eq. 1), NGCF and LightGCN (graph
// family, Eq. 2), plus the plain MF used inside the FCF/FedMF baselines.
//
// All gradients are derived by hand and verified against finite differences
// in the package tests. Every model trains with pointwise binary
// cross-entropy on (user, item, label) triples where the label may be soft —
// that is exactly the client loss (Eq. 3) and server loss (Eq. 5) of
// PTF-FedRec.
package models

import (
	"fmt"

	"ptffedrec/internal/emb"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
)

// Sample is one training triple. Label is in [0,1]: hard 0/1 for a client's
// own interactions, soft for knowledge received through the protocol.
type Sample struct {
	User, Item int
	Label      float64
}

// Recommender is the model contract the federated and centralized trainers
// share.
type Recommender interface {
	// Name identifies the model family (for reports).
	Name() string
	// TrainBatch runs forward/backward/update on one batch and returns the
	// batch's mean BCE loss.
	TrainBatch(batch []Sample) float64
	// Score returns σ(logit) for a single user–item pair.
	Score(u, v int) float64
	// ScoreItems scores one user against a list of items.
	ScoreItems(u int, items []int) []float64
}

// Fit is the minibatch loop every trainer shares: each of epochs passes
// shuffles samples in place with s, then calls m.TrainBatch once per
// consecutive batch of at most batch samples. It returns the mean batch loss
// over every pass, or 0 when there was no batch.
func Fit(m Recommender, s *rng.Stream, samples []Sample, epochs, batch int) float64 {
	var loss float64
	batches := 0
	for e := 0; e < epochs; e++ {
		s.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		for off := 0; off < len(samples); off += batch {
			loss += m.TrainBatch(samples[off:min(off+batch, len(samples))])
			batches++
		}
	}
	if batches == 0 {
		return 0
	}
	return loss / float64(batches)
}

// GraphRecommender is implemented by the models that propagate over the
// user–item graph. SetGraph installs the propagation operators of a committed
// graph.Incremental; the graph can be replaced between rounds (the PTF-FedRec
// server patches its engine from the round's uploads, a graph client and the
// centralized trainer stage a fresh one). The model's operator buffers are
// reused across calls — the engine copies into them, it does not retain them.
type GraphRecommender interface {
	Recommender
	SetGraph(inc *graph.Incremental)
}

// Scorer is the minimal scoring capability — one user against a list of
// candidate items — and the root of the scoring interface family consumed by
// the evaluator and the dispersal engine (MultiBlockScorer refines it: a
// scorer that implements it is ranked through multi-user logit batches,
// anything else through ScoreItems). Recommender satisfies it; federated
// clients adapt it to their local user index via ScorerFunc.
//
// A Scorer handed to a parallel consumer must tolerate concurrent ScoreItems
// calls for distinct users (no consumer scores the same user from two
// goroutines). Scorers whose first call lazily builds shared state should
// implement Warmer.
type Scorer interface {
	ScoreItems(u int, items []int) []float64
}

// ScorerFunc adapts a function to the Scorer interface.
type ScorerFunc func(u int, items []int) []float64

// ScoreItems implements Scorer.
func (f ScorerFunc) ScoreItems(u int, items []int) []float64 { return f(u, items) }

// Warmer is an optional Scorer extension. WarmScoring precomputes any lazily
// cached shared state (e.g. a graph model's propagated embeddings) so that
// subsequent scoring calls are read-only and safe to issue concurrently.
// Parallel consumers invoke it once before fanning out to workers.
type Warmer interface {
	WarmScoring()
}

// scoreBuf returns a zero-length slice with capacity for n scores, reusing
// dst's storage when possible.
func scoreBuf(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, 0, n)
	}
	return dst[:0]
}

// sigmoidVec replaces each logit in dst with σ(logit).
func sigmoidVec(dst []float64) {
	for i, v := range dst {
		dst[i] = nn.Sigmoid(v)
	}
}

// Kind selects a model family.
type Kind string

// The model kinds evaluated in the paper.
const (
	KindMF       Kind = "mf"
	KindNeuMF    Kind = "neumf"
	KindNGCF     Kind = "ngcf"
	KindLightGCN Kind = "lightgcn"
)

// ParseKind converts a string (CLI flag) to a Kind.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case KindMF, KindNeuMF, KindNGCF, KindLightGCN:
		return Kind(s), nil
	}
	return "", fmt.Errorf("models: unknown kind %q", s)
}

// Config carries the hyper-parameters shared by all models. The defaults
// mirror §IV-D of the paper.
type Config struct {
	NumUsers, NumItems int
	Dim                int     // embedding dimension (paper: 32)
	LR                 float64 // Adam learning rate (paper: 1e-3)
	Layers             int     // propagation layers for GNNs / MLP depth marker (paper: 3)
	Lazy               bool    // lazy embedding tables (client-side models)

	// TrainWorkers bounds TrainBatch's intra-batch parallelism: the batch is
	// sharded into fixed-size gradient chunks computed on this many workers
	// and merged in chunk order, so seeded training is bitwise-identical for
	// every value. <= 1 (and any Lazy model) trains serially.
	TrainWorkers int

	Seed uint64
}

// DefaultConfig returns the paper's hyper-parameters for the given universe.
func DefaultConfig(numUsers, numItems int) Config {
	return Config{
		NumUsers: numUsers,
		NumItems: numItems,
		Dim:      32,
		LR:       1e-3,
		Layers:   3,
		Seed:     1,
	}
}

// New constructs a model of the requested kind. Graph models start with the
// empty graph's operators; call SetGraph before training.
func New(kind Kind, cfg Config) (Recommender, error) {
	if cfg.NumUsers <= 0 || cfg.NumItems <= 0 {
		return nil, fmt.Errorf("models: universe %dx%d invalid", cfg.NumUsers, cfg.NumItems)
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("models: dim %d invalid", cfg.Dim)
	}
	s := rng.New(cfg.Seed).Derive("model:" + string(kind))
	switch kind {
	case KindMF:
		return NewMF(cfg, s), nil
	case KindNeuMF:
		return NewNeuMF(cfg, s), nil
	case KindNGCF:
		return NewNGCF(cfg, s), nil
	case KindLightGCN:
		return NewLightGCN(cfg, s), nil
	}
	return nil, fmt.Errorf("models: unknown kind %q", kind)
}

// newTables builds a model's user and item embedding tables: lazy for a
// client model, dense over the whole universe otherwise.
func newTables(cfg Config, s *rng.Stream) (users, items *emb.Table) {
	hy := emb.DefaultAdam(cfg.LR)
	if cfg.Lazy {
		return emb.NewLazyTable(s.Derive("u"), cfg.Dim, hy), emb.NewLazyTable(s.Derive("v"), cfg.Dim, hy)
	}
	return emb.NewTable(s.Derive("u"), cfg.NumUsers, cfg.Dim, hy), emb.NewTable(s.Derive("v"), cfg.NumItems, cfg.Dim, hy)
}
