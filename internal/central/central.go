// Package central trains a recommender the pre-federated way: all
// interactions on one machine. It provides the upper-bound rows of Table III
// (centralized NeuMF / NGCF / LightGCN).
package central

import (
	"fmt"

	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// Config controls centralized training. Defaults mirror §IV-D; the graph
// depth (models.Layers) and the negative ratio (data.NegRatio) are fixed.
type Config struct {
	Model     models.Kind
	Dim       int
	LR        float64
	Epochs    int
	BatchSize int
	Seed      uint64
}

// DefaultConfig returns the paper's centralized-training settings.
func DefaultConfig(kind models.Kind) Config {
	return Config{
		Model:     kind,
		Dim:       32,
		LR:        1e-3,
		Epochs:    30,
		BatchSize: 1024,
		Seed:      1,
	}
}

// Trainer owns the model and the training loop.
type Trainer struct {
	cfg   Config
	split *data.Split
	model models.Recommender
	s     *rng.Stream

	// evaluator holds the split's evaluated-user list across Evaluate calls
	// (the split is immutable; the list is cutoff-independent).
	evaluator *eval.Evaluator
}

// NewTrainer builds the model (and, for graph recommenders, the training
// interaction graph) for the given split.
func NewTrainer(sp *data.Split, cfg Config) (*Trainer, error) {
	mcfg := models.Config{
		NumUsers: sp.NumUsers,
		NumItems: sp.NumItems,
		Dim:      cfg.Dim,
		LR:       cfg.LR,
		Layers:   models.Layers,
		Seed:     cfg.Seed,
	}
	m, err := models.New(cfg.Model, mcfg)
	if err != nil {
		return nil, fmt.Errorf("central: %w", err)
	}
	if gm, ok := m.(models.GraphRecommender); ok {
		inc := graph.NewIncremental(sp.NumUsers, sp.NumItems)
		var edges []graph.Edge
		for u, items := range sp.Train {
			edges = edges[:0]
			for _, v := range items {
				edges = append(edges, graph.Edge{Item: v, Weight: 1})
			}
			inc.StageUser(u, edges)
		}
		inc.Commit(1)
		gm.SetGraph(inc)
	}
	return &Trainer{cfg: cfg, split: sp, model: m, s: rng.New(cfg.Seed).Derive("central")}, nil
}

// Model returns the trained recommender.
func (t *Trainer) Model() models.Recommender { return t.model }

// TrainEpoch samples fresh negatives, shuffles, and runs one pass over the
// training set, returning the mean batch loss.
func (t *Trainer) TrainEpoch() float64 {
	var samples []models.Sample
	for u, items := range t.split.Train {
		for _, v := range items {
			samples = append(samples, models.Sample{User: u, Item: v, Label: 1})
		}
		for _, v := range t.split.SampleNegativesN(t.s, u, len(items)*data.NegRatio) {
			samples = append(samples, models.Sample{User: u, Item: v, Label: 0})
		}
	}
	return models.Fit(t.model, t.s, samples, 1, t.cfg.BatchSize)
}

// Run trains for the configured number of epochs and returns the final
// epoch's mean loss.
func (t *Trainer) Run() float64 {
	var loss float64
	for e := 0; e < t.cfg.Epochs; e++ {
		loss = t.TrainEpoch()
	}
	return loss
}

// Evaluate computes Recall@eval.K and NDCG@eval.K on the held-out items,
// reusing the trainer's evaluated-user list across calls.
func (t *Trainer) Evaluate() eval.Result {
	return eval.LazyEvaluator(&t.evaluator, t.split).Rank(t.model, eval.K, 0)
}
