package fed

import (
	"fmt"
	"sort"
	"sync"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/models"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/privacy"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// Client is one federated participant. It owns its private interactions, a
// local model over a single-user universe (the local user index is always 0),
// and the latest soft-label set D̃ᵢ received from the server.
type Client struct {
	ID int

	model    models.Recommender
	cfg      *Config
	s        *rng.Stream
	numItems int

	positives []int // training positives from the split (private)

	// serverData is D̃ᵢ: (item, soft score) pairs from the last dispersal.
	serverData []comm.Prediction
}

// newClient builds the client's local model. Graph client models (Table VIII)
// get a single-user universe graph rebuilt before each local training pass.
func newClient(id int, positives []int, numItems int, cfg *Config, parent *rng.Stream) (*Client, error) {
	s := parent.DeriveN("client", id)
	mcfg := models.Config{
		NumUsers: 1,
		NumItems: numItems,
		Dim:      cfg.Dim,
		LR:       cfg.LR,
		Layers:   cfg.Layers,
		Lazy:     true,
		Seed:     cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15,
	}
	m, err := models.New(cfg.ClientModel, mcfg)
	if err != nil {
		return nil, fmt.Errorf("fed: client %d: %w", id, err)
	}
	return &Client{
		ID:        id,
		model:     m,
		cfg:       cfg,
		s:         s,
		numItems:  numItems,
		positives: positives,
	}, nil
}

// ServerData returns the current D̃ᵢ.
func (c *Client) ServerData() []comm.Prediction { return c.serverData }

// Model returns the client's local recommender.
func (c *Client) Model() models.Recommender { return c.model }

// receiveDispersal replaces D̃ᵢ with the server's latest soft labels.
func (c *Client) receiveDispersal(preds []comm.Prediction) { c.serverData = preds }

// localTrain implements CLIENT-TRAIN (Algorithm 1, lines 14-17): build
// Dᵢ ∪ D̃ᵢ, train the local model for ClientEpochs epochs, and return the
// privacy-protected upload D̂ᵗᵢ plus the mean training loss.
func (c *Client) localTrain(sampleNegatives func(n int) []int) ([]comm.Prediction, float64) {
	negatives := sampleNegatives(len(c.positives) * c.cfg.NegRatio)

	// Graph client models rebuild their one-hop local graph from the hard
	// positives plus the server's soft positives: one user staged into a
	// fresh engine, every weight 1 or at least GraphThreshold > 0.
	if gm, ok := c.model.(models.GraphRecommender); ok {
		edges := make([]graph.Edge, 0, len(c.positives)+len(c.serverData))
		for _, v := range c.positives {
			edges = append(edges, graph.Edge{Item: v, Weight: 1})
		}
		for _, p := range c.serverData {
			if p.Score >= c.cfg.GraphThreshold {
				edges = append(edges, graph.Edge{Item: p.Item, Weight: p.Score})
			}
		}
		inc := graph.NewIncremental(1, c.numItems)
		inc.StageUser(0, edges)
		inc.Commit(1)
		gm.SetGraph(inc)
	}

	samples := make([]models.Sample, 0, len(c.positives)+len(negatives)+len(c.serverData))
	for _, v := range c.positives {
		samples = append(samples, models.Sample{User: 0, Item: v, Label: 1})
	}
	for _, v := range negatives {
		samples = append(samples, models.Sample{User: 0, Item: v, Label: 0})
	}
	for _, p := range c.serverData {
		samples = append(samples, models.Sample{User: 0, Item: p.Item, Label: p.Score})
	}

	loss := models.Fit(c.model, c.s, samples, c.cfg.ClientEpochs, c.cfg.ClientBatch)
	return c.buildUpload(negatives), loss
}

// buildUpload constructs D̂ᵗᵢ per §III-B2 under the configured defense.
func (c *Client) buildUpload(negatives []int) []comm.Prediction {
	var selPos, selNeg []int
	switch c.cfg.Privacy.Defense {
	case privacy.DefenseSampling, privacy.DefenseSamplingSwap:
		selPos, selNeg, _, _ = privacy.SampleUpload(c.s, c.positives, negatives, c.cfg.Privacy)
	default: // none, ldp: upload the whole trained pool Vᵗᵢ
		selPos = append([]int(nil), c.positives...)
		selNeg = append([]int(nil), negatives...)
	}

	items := make([]int, 0, len(selPos)+len(selNeg))
	items = append(items, selPos...)
	items = append(items, selNeg...)
	block := scoreBlocks.Get().(*oneUserBlock)
	preds := block.predictions(c.model, 0, c.ID, items)
	scoreBlocks.Put(block)

	switch c.cfg.Privacy.Defense {
	case privacy.DefenseSamplingSwap:
		// Every uploaded item is a selected positive or a sampled
		// non-positive, so "is a positive" is "was selected as one".
		privacy.Swap(c.s, preds, c.isPositive, c.cfg.Privacy.Lambda)
	case privacy.DefenseLDP:
		privacy.AddLaplace(c.s, preds, c.cfg.Privacy.LaplaceScale)
	}

	// Shuffle so upload order leaks nothing about the positive/negative
	// partition.
	c.s.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	return preds
}

// oneUserBlock scores one user's item list as a one-user logit block and
// ships it as predictions: a client's upload scores (Eq. 4) and dispersal's
// soft labels (Eq. 9). Its user array, matrix header and logit backing are
// reused across calls, so a call allocates only the predictions it returns.
type oneUserBlock struct {
	one    [1]int
	mat    tensor.Matrix
	logits []float64
}

// scoreBlocks lends each client upload a oneUserBlock; like guessBuffers it
// is shared by every host.
var scoreBlocks = sync.Pool{New: func() any { return new(oneUserBlock) }}

// predictions scores items for user u of s and returns them as user id's
// predictions, σ applied to each logit: by the MultiBlockScorer contract, the
// per-item probabilities.
func (b *oneUserBlock) predictions(s models.MultiBlockScorer, u, id int, items []int) []comm.Prediction {
	if cap(b.logits) < len(items) {
		b.logits = make([]float64, len(items))
	}
	b.one[0] = u
	b.mat = tensor.Matrix{Rows: 1, Cols: len(items), Data: b.logits[:len(items)]}
	s.ScoreUsersBlockLogitsInto(&b.mat, b.one[:], items)
	preds := make([]comm.Prediction, len(items))
	for j, v := range items {
		preds[j] = comm.Prediction{User: id, Item: v, Score: nn.Sigmoid(b.mat.Data[j])}
	}
	return preds
}

// isPositive reports whether item v is one of the client's true positives
// (it steers the swap defense and scores the attack; the real server never
// sees it).
func (c *Client) isPositive(v int) bool {
	i := sort.SearchInts(c.positives, v)
	return i < len(c.positives) && c.positives[i] == v
}
