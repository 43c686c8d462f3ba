package models

import (
	"math"
	"sync"

	"ptffedrec/internal/emb"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// MF is logistic matrix factorization: r̂ᵤᵥ = σ(pᵤ·qᵥ). It is the model
// federated by the FCF and FedMF baselines.
type MF struct {
	cfg          Config
	workers      int
	users, items *emb.Table

	// ws lends gradient workspaces to TrainBatch and its shards; every MF of
	// the same embedding width shares it.
	ws *sync.Pool
}

// mfPools maps an embedding width to the workspace pool of every MF that
// wide.
var mfPools sync.Map // int → *sync.Pool

// NewMF builds a matrix factorization model.
func NewMF(cfg Config, s *rng.Stream) *MF {
	m := &MF{cfg: cfg, workers: resolveTrainWorkers(cfg), ws: shapePool(&mfPools, cfg.Dim, newMFChunk)}
	m.users, m.items = newTables(cfg, s)
	return m
}

// Name implements Recommender.
func (m *MF) Name() string { return string(KindMF) }

// ScoreUsersBlockLogitsInto implements MultiBlockScorer's logit-domain half:
// one double-gathered GEMM against the dense embedding tables produces the
// whole user batch's raw dot products. Lazy tables have no dense matrix to
// multiply against, so they keep the per-pair dot loop (which materialises
// rows and is therefore single-goroutine anyway) over rows widened into a
// pooled workspace, each user's once.
func (m *MF) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int) {
	checkUsersBlock(dst, users, items)
	if !m.cfg.Lazy {
		tensor.GatherMulMatInto(dst, m.users.W, users, 0, m.items.W, items, 0)
		return
	}
	ws := m.ws.Get().(*mfChunk)
	defer m.ws.Put(ws)
	for i, u := range users {
		m.users.ReadRow(ws.p, u)
		row := dst.Row(i)
		for j, v := range items {
			m.items.ReadRow(ws.q, v)
			row[j] = tensor.Dot(ws.p, ws.q)
		}
	}
}

// LogitBoundsInto implements LogitBounder from the dense tables' rows. A lazy
// table materialises a row on read, so a lazy model promises nothing: +Inf.
func (m *MF) LogitBoundsInto(dst []float64, users, items []int) {
	checkBounds(dst, users, items)
	if m.cfg.Lazy {
		for i := range dst {
			dst[i] = math.Inf(1)
		}
		return
	}
	for i, u := range users {
		dst[i] = rowBound(m.users.W.Row(u))
	}
	for j, v := range items {
		dst[len(users)+j] = rowBound(m.items.W.Row(v))
	}
}

// TrainBatch implements Recommender.
func (m *MF) TrainBatch(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	ws := m.ws.Get().(*mfChunk)
	loss := m.accumulateGrad(ws, batch)
	m.users.Step(ws.users)
	m.items.Step(ws.items)
	m.ws.Put(ws)
	return loss
}

// mfChunk is one gradient shard's workspace: its loss sum, the embedding
// rows it touched, and the user and item row each read copies or widens
// into.
type mfChunk struct {
	lossSum      float64
	users, items *emb.RowGrads
	p, q         []float64
}

func newMFChunk(dim int) *mfChunk {
	return &mfChunk{users: emb.NewRowGrads(dim), items: emb.NewRowGrads(dim),
		p: make([]float64, dim), q: make([]float64, dim)}
}

// shardGrad computes one shard's loss sum and embedding-row gradients into
// ws; n is the whole batch's length. The weights are only read.
func (m *MF) shardGrad(ws *mfChunk, shard []Sample, n int) {
	ws.lossSum = 0
	ws.users.Reset()
	ws.items.Reset()
	u, p, q := -1, ws.p, ws.q
	for _, smp := range shard {
		if smp.User != u {
			// A client batch has one user, whose row is read once.
			u = smp.User
			m.users.ReadRow(p, u)
		}
		m.items.ReadRow(q, smp.Item)
		pred := nn.Sigmoid(tensor.Dot(p, q))
		ws.lossSum += nn.BCEOne(pred, smp.Label)
		g := (pred - smp.Label) / float64(n)
		ws.users.Axpy(smp.User, g, q)
		ws.items.Axpy(smp.Item, g, p)
	}
}

// accumulateGrad computes the batch loss and leaves the embedding-row
// gradients in ws without applying them. A batch of one shard — every client
// batch — accumulates straight into ws. Larger batches run their chunks on
// the TrainWorkers pool into private workspaces (weights are read-only until
// Step), merged into ws in chunk order.
func (m *MF) accumulateGrad(ws *mfChunk, batch []Sample) float64 {
	n := len(batch)
	if n <= trainChunkSize {
		m.shardGrad(ws, batch, n)
		return ws.lossSum / float64(n)
	}
	shards := make([]*mfChunk, trainChunks(n))
	forChunks(n, m.workers, func(c, lo, hi int) {
		sh := m.ws.Get().(*mfChunk)
		m.shardGrad(sh, batch[lo:hi], n)
		shards[c] = sh
	})
	ws.users.Reset()
	ws.items.Reset()
	var lossSum float64
	for _, sh := range shards {
		lossSum += sh.lossSum
		sh.users.AddTo(ws.users)
		sh.items.AddTo(ws.items)
		m.ws.Put(sh)
	}
	return lossSum / float64(n)
}
