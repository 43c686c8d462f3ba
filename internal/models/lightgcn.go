package models

import (
	"ptffedrec/internal/emb"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// LightGCN implements He et al. (2020): embeddings are propagated L times
// over the symmetric normalized adjacency with no transforms or
// nonlinearities, and the readout is the layer mean
//
//	E_final = 1/(L+1) · Σ_{l=0..L} Â^l E⁰ ,  r̂ᵤᵥ = σ(eᵤ·eᵥ).
//
// Backpropagation exploits Â's symmetry: dE⁰ = Σ_l c·Â^l dE_final, computed
// with the recurrence G_{l-1} = c·dF + Â·G_l.
//
// All of it runs over the live rows only. A row is live if it may hold a
// non-zero adjacency row, gradient or Adam moment: every item, plus every
// user that has had an edge in a graph handed to SetGraph[Incremental] or
// has appeared in a TrainBatch. The list only grows. For every other row the
// adjacency row, the gradient and both moments are exact zeros, so the dense
// computation would add exact zeros to it: its readout is the closed form
// c·e⁰ (written once, e⁰ never moves) and its optimizer step is the identity.
// Skipping those rows therefore changes no bit of any weight, moment, readout
// or score; a federated server that hears from a fraction of a percent of its
// users per round pays for the users it has heard from, not for the
// population. Neighbours of a live row are live, so the layer buffers are
// only ever read at rows the same pass wrote.
type LightGCN struct {
	cfg     Config
	workers int
	e0      *nn.Param // (U+V)×d
	opt     *nn.Adam

	adj    *tensor.CSR
	live   []int  // live rows: the items, then users in order of first use
	isLive []bool // membership in live, by row

	final     *tensor.Matrix
	dirty     bool // final's live rows are stale (graph or parameters changed)
	deadStale bool // final's other rows lack their closed form (first use, Restore)

	// Workspaces, allocated on first use and then reused. layer holds two
	// (U+V)×d propagation buffers (ping-pong in the forward pass; G and Â·G in
	// the backward one), dF the batch's dL/dE_final, all-zero between batches.
	// Only live rows of any of them are ever touched.
	layer  [2]*tensor.Matrix
	dF     *tensor.Matrix
	chunks []lgcnChunk
}

// NewLightGCN builds the model over an initially empty graph (call SetGraph).
func NewLightGCN(cfg Config, s *rng.Stream) *LightGCN {
	n := cfg.NumUsers + cfg.NumItems
	m := &LightGCN{
		cfg:       cfg,
		workers:   resolveTrainWorkers(cfg),
		e0:        nn.NewParam("lightgcn.E0", n, cfg.Dim),
		opt:       nn.NewAdam(cfg.LR),
		live:      make([]int, cfg.NumItems),
		isLive:    make([]bool, n),
		dirty:     true,
		deadStale: true,
	}
	for v := range m.live {
		m.live[v] = m.itemNode(v)
		m.isLive[m.itemNode(v)] = true
	}
	nn.Normal(s.Derive("e0"), m.e0.W, 0.1)
	m.SetGraph(graph.NewBipartite(cfg.NumUsers, cfg.NumItems))
	return m
}

// Name implements Recommender.
func (m *LightGCN) Name() string { return string(KindLightGCN) }

// SetGraph implements GraphRecommender.
func (m *LightGCN) SetGraph(g *graph.Bipartite) {
	if g.NumUsers != m.cfg.NumUsers || g.NumItems != m.cfg.NumItems {
		panic("models: LightGCN graph universe mismatch")
	}
	m.setAdj(g.NormalizedAdjPar(m.workers))
}

// SetGraphIncremental implements GraphDeltaRecommender: the maintained
// adjacency is assembled straight into the model's reused CSR buffer.
func (m *LightGCN) SetGraphIncremental(inc *graph.Incremental) {
	if inc.NumUsers() != m.cfg.NumUsers || inc.NumItems() != m.cfg.NumItems {
		panic("models: LightGCN graph universe mismatch")
	}
	m.setAdj(inc.AdjInto(m.adj, m.workers))
}

// setAdj installs a new adjacency and makes every user it connects live.
func (m *LightGCN) setAdj(adj *tensor.CSR) {
	m.adj = adj
	for u := 0; u < m.cfg.NumUsers; u++ {
		if adj.RowNNZ(u) > 0 {
			m.markLive(u)
		}
	}
	m.dirty = true
}

// markLive adds row i to the live list. A row's closed-form readout is what
// the live computation yields for it while its adjacency row is empty, so
// joining the list does not by itself stale the propagation cache.
func (m *LightGCN) markLive(i int) {
	if !m.isLive[i] {
		m.isLive[i] = true
		m.live = append(m.live, i)
	}
}

// layerBuf returns propagation workspace k, allocating it on first use.
func (m *LightGCN) layerBuf(k int) *tensor.Matrix {
	if m.layer[k] == nil {
		m.layer[k] = tensor.New(m.e0.W.Rows, m.e0.W.Cols)
	}
	return m.layer[k]
}

// propagate returns the cached layer-mean embeddings, recomputing the live
// rows when the parameters or graph changed. The SpMM shards over the live
// list on the TrainWorkers pool, bitwise-identical for any worker count.
func (m *LightGCN) propagate() *tensor.Matrix {
	if !m.dirty && !m.deadStale {
		return m.final
	}
	c := 1.0 / float64(m.cfg.Layers+1)
	e0 := m.e0.W
	if m.final == nil {
		m.final = tensor.New(e0.Rows, e0.Cols)
	}
	final := m.final
	if m.deadStale {
		for u := 0; u < m.cfg.NumUsers; u++ {
			if m.isLive[u] {
				continue
			}
			frow := final.Row(u)
			for k, v := range e0.Row(u) {
				frow[k] = v * c
				if m.cfg.Layers > 0 {
					frow[k] += 0 // what every layer adds; it turns a -0 into +0
				}
			}
		}
		m.deadStale = false
	}
	for _, i := range m.live {
		frow := final.Row(i)
		for k, v := range e0.Row(i) {
			frow[k] = v * c
		}
	}
	cur := e0
	for l := 0; l < m.cfg.Layers; l++ {
		buf := m.layerBuf(l & 1)
		m.adj.MulDenseRowsIntoPar(buf, cur, m.live, m.workers)
		for _, i := range m.live {
			tensor.Axpy(c, buf.Row(i), final.Row(i))
		}
		cur = buf
	}
	m.dirty = false
	return final
}

// WarmScoring implements Warmer: it forces the propagation cache so
// concurrent ScoreItems calls are pure reads.
func (m *LightGCN) WarmScoring() { m.propagate() }

func (m *LightGCN) itemNode(v int) int { return m.cfg.NumUsers + v }

// Score implements Recommender.
func (m *LightGCN) Score(u, v int) float64 {
	f := m.propagate()
	return nn.Sigmoid(dot(f.Row(u), f.Row(m.itemNode(v))))
}

// ScoreItems implements Recommender.
func (m *LightGCN) ScoreItems(u int, items []int) []float64 {
	return m.ScoreItemsInto(nil, u, items)
}

// ScoreItemsInto is the per-item loop behind ScoreItems; it reuses dst's capacity.
func (m *LightGCN) ScoreItemsInto(dst []float64, u int, items []int) []float64 {
	f := m.propagate()
	urow := f.Row(u)
	out := scoreBuf(dst, len(items))
	for _, v := range items {
		out = append(out, nn.Sigmoid(dot(urow, f.Row(m.itemNode(v)))))
	}
	return out
}

// ScoreUsersBlockLogitsInto implements MultiBlockScorer's logit-domain half:
// one double-gathered GEMM against the propagated embedding matrix produces
// the whole user batch's raw dot products.
func (m *LightGCN) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int) {
	checkUsersBlock(dst, users, items)
	f := m.propagate()
	tensor.GatherMulMatInto(dst, f, users, 0, f, items, m.cfg.NumUsers)
}

// ScorePairsInto implements MultiBlockScorer's ragged half: one gathered
// pair-dot pass over the propagated embedding matrix, then the sigmoid.
func (m *LightGCN) ScorePairsInto(dst []float64, users []int, items []int) {
	checkPairs(dst, users, items)
	f := m.propagate()
	tensor.GatherPairDotInto(dst, f, users, 0, f, items, m.cfg.NumUsers)
	sigmoidVec(dst)
}

// TrainBatch implements Recommender.
func (m *LightGCN) TrainBatch(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	loss := m.accumulateGrad(batch)
	m.opt.StepRows(m.e0, m.live)
	m.dirty = true
	return loss
}

// lgcnChunk is one gradient shard's workspace: the shard's loss sum and its
// sparse contribution to dL/dE_final.
type lgcnChunk struct {
	lossSum float64
	df      *emb.RowGrads
}

// seed scores the shard's samples against the propagated embeddings f and
// collects their loss and dL/dE_final rows; n is the whole batch's length.
func (ws *lgcnChunk) seed(m *LightGCN, f *tensor.Matrix, shard []Sample, n int) {
	ws.lossSum = 0
	ws.df.Reset()
	for _, smp := range shard {
		un, vn := smp.User, m.itemNode(smp.Item)
		pred := nn.Sigmoid(dot(f.Row(un), f.Row(vn)))
		ws.lossSum += nn.BCEOne(pred, smp.Label)
		g := (pred - smp.Label) / float64(n)
		ws.df.Axpy(un, g, f.Row(vn))
		ws.df.Axpy(vn, g, f.Row(un))
	}
}

// accumulateGrad computes the batch loss and adds dL/dE⁰ into the parameter
// gradient without stepping the optimizer. The per-sample score/seed pass is
// sharded into fixed chunks merged in chunk order; the propagation backward
// shards its SpMMs over the live list. Gradients land on live rows only.
func (m *LightGCN) accumulateGrad(batch []Sample) float64 {
	for _, smp := range batch {
		m.markLive(smp.User)
	}
	f := m.propagate()
	n := len(batch)
	for len(m.chunks) < trainChunks(n) {
		m.chunks = append(m.chunks, lgcnChunk{df: emb.NewRowGrads(m.cfg.Dim)})
	}
	chunks := m.chunks[:trainChunks(n)]
	if m.workers <= 1 {
		for c := range chunks {
			lo, hi := trainChunkBounds(c, n)
			chunks[c].seed(m, f, batch[lo:hi], n)
		}
	} else {
		forChunks(n, m.workers, func(c, lo, hi int) { chunks[c].seed(m, f, batch[lo:hi], n) })
	}

	// dL/dE_final from the dot-product scores, merged in chunk order.
	if m.dF == nil {
		m.dF = tensor.New(f.Rows, f.Cols)
	}
	dF := m.dF
	var lossSum float64
	for i := range chunks {
		lossSum += chunks[i].lossSum
		chunks[i].df.AddToRows(dF)
	}

	// Back through the propagation: G_L = c·dF, G_{l-1} = c·dF + Â·G_l.
	c := 1.0 / float64(m.cfg.Layers+1)
	g := m.layerBuf(0)
	for _, i := range m.live {
		grow := g.Row(i)
		for k, v := range dF.Row(i) {
			grow[k] = v * c
		}
	}
	for l := m.cfg.Layers; l >= 1; l-- {
		buf := m.layerBuf(1)
		m.adj.MulDenseRowsIntoPar(buf, g, m.live, m.workers)
		for _, i := range m.live {
			grow, brow := g.Row(i), buf.Row(i)
			for k, v := range dF.Row(i) {
				grow[k] = float64(v*c) + brow[k] // rounded product, then the sum: never fused
			}
		}
	}
	for _, i := range m.live {
		tensor.AddVec(g.Row(i), m.e0.Grad.Row(i))
		clear(dF.Row(i))
	}
	return lossSum / float64(n)
}
