package models

import (
	"ptffedrec/internal/emb"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// ngcfAlpha is NGCF's LeakyReLU slope.
const ngcfAlpha = 0.2

// NGCF implements Wang et al. (2019). Layer l computes, in matrix form,
//
//	E_l = LeakyReLU( (Â+I)·E_{l-1}·W1_l + (Â·E_{l-1} ⊙ E_{l-1})·W2_l )
//
// where ⊙ is the row-wise Hadamard interaction term, and the readout
// concatenates all layers: r̂ᵤᵥ = σ( Σ_l eᵤ^l · eᵥ^l ). Message dropout is
// omitted (the paper trains small models for few epochs).
type NGCF struct {
	cfg     Config
	workers int
	e0      *nn.Param
	w1      []*nn.Param // per layer, d×d
	w2      []*nn.Param
	opt     *nn.Adam

	adj, adjSelf *tensor.CSR

	// propagation caches reused by scoring and backward
	outs  []*tensor.Matrix // E_0..E_L (post-activation)
	zs    []*tensor.Matrix // Z_1..Z_L (pre-activation)
	ps    []*tensor.Matrix // P_l = (Â+I)E_{l-1}
	qs    []*tensor.Matrix // Q_l = Â E_{l-1}
	hs    []*tensor.Matrix // H_l = Q_l ⊙ E_{l-1}
	dirty bool
}

// NewNGCF builds the model over an initially empty graph (call SetGraph).
func NewNGCF(cfg Config, s *rng.Stream) *NGCF {
	n := cfg.NumUsers + cfg.NumItems
	m := &NGCF{
		cfg:     cfg,
		workers: resolveTrainWorkers(cfg),
		e0:      nn.NewParam("ngcf.E0", n, cfg.Dim),
		opt:     nn.NewAdam(cfg.LR),
		dirty:   true,
	}
	nn.Normal(s.Derive("e0"), m.e0.W, 0.1)
	for l := 0; l < cfg.Layers; l++ {
		w1 := nn.NewParam("ngcf.W1", cfg.Dim, cfg.Dim)
		w2 := nn.NewParam("ngcf.W2", cfg.Dim, cfg.Dim)
		nn.Xavier(s.DeriveN("w1", l), w1.W, cfg.Dim, cfg.Dim)
		nn.Xavier(s.DeriveN("w2", l), w2.W, cfg.Dim, cfg.Dim)
		m.w1 = append(m.w1, w1)
		m.w2 = append(m.w2, w2)
	}
	m.SetGraph(graph.NewBipartite(cfg.NumUsers, cfg.NumItems))
	return m
}

// Name implements Recommender.
func (m *NGCF) Name() string { return string(KindNGCF) }

// SetGraph implements GraphRecommender.
func (m *NGCF) SetGraph(g *graph.Bipartite) {
	if g.NumUsers != m.cfg.NumUsers || g.NumItems != m.cfg.NumItems {
		panic("models: NGCF graph universe mismatch")
	}
	m.adj = g.NormalizedAdjPar(m.workers)
	m.adjSelf = g.NormalizedAdjSelfPar(m.workers)
	m.dirty = true
}

// SetGraphIncremental implements GraphDeltaRecommender: both propagation
// operators are assembled straight into the model's reused CSR buffers.
func (m *NGCF) SetGraphIncremental(inc *graph.Incremental) {
	if inc.NumUsers() != m.cfg.NumUsers || inc.NumItems() != m.cfg.NumItems {
		panic("models: NGCF graph universe mismatch")
	}
	m.adj = inc.AdjInto(m.adj, m.workers)
	m.adjSelf = inc.AdjSelfInto(m.adjSelf, m.workers)
	m.dirty = true
}

// propagate fills the layer caches if stale. The SpMMs and dense products
// shard over row ranges on the TrainWorkers pool, bitwise-identical for any
// worker count.
func (m *NGCF) propagate() {
	if !m.dirty && m.outs != nil {
		return
	}
	e := m.e0.W
	m.outs = []*tensor.Matrix{e}
	m.zs, m.ps, m.qs, m.hs = nil, nil, nil, nil
	for l := 0; l < m.cfg.Layers; l++ {
		p := m.adjSelf.MulDensePar(e, m.workers)
		q := m.adj.MulDensePar(e, m.workers)
		h := tensor.Hadamard(q, e)
		z := tensor.MatMulPar(p, m.w1[l].W, m.workers)
		z.AddInPlace(tensor.MatMulPar(h, m.w2[l].W, m.workers))
		e = nn.LeakyReLU(z, ngcfAlpha)
		m.ps = append(m.ps, p)
		m.qs = append(m.qs, q)
		m.hs = append(m.hs, h)
		m.zs = append(m.zs, z)
		m.outs = append(m.outs, e)
	}
	m.dirty = false
}

// WarmScoring implements Warmer: it forces the propagation caches so
// concurrent ScoreItems calls are pure reads.
func (m *NGCF) WarmScoring() { m.propagate() }

func (m *NGCF) itemNode(v int) int { return m.cfg.NumUsers + v }

// readoutScale averages the per-layer dot products instead of summing the
// concatenated readout. The two are equivalent up to a logit temperature;
// averaging keeps NGCF's logits on the same scale as LightGCN's, which
// matters when training against soft labels near 0.5.
func (m *NGCF) readoutScale() float64 { return 1 / float64(len(m.outs)) }

// scoreNodes computes the layer-averaged dot-product readout.
func (m *NGCF) scoreNodes(un, vn int) float64 {
	var s float64
	for _, e := range m.outs {
		s += dot(e.Row(un), e.Row(vn))
	}
	return nn.Sigmoid(s * m.readoutScale())
}

// Score implements Recommender.
func (m *NGCF) Score(u, v int) float64 {
	m.propagate()
	return m.scoreNodes(u, m.itemNode(v))
}

// ScoreItems implements Recommender.
func (m *NGCF) ScoreItems(u int, items []int) []float64 {
	return m.ScoreItemsInto(nil, u, items)
}

// ScoreItemsInto is the per-item loop behind ScoreItems; it reuses dst's capacity.
func (m *NGCF) ScoreItemsInto(dst []float64, u int, items []int) []float64 {
	m.propagate()
	out := scoreBuf(dst, len(items))
	for _, v := range items {
		out = append(out, m.scoreNodes(u, m.itemNode(v)))
	}
	return out
}

// ScoreUsersBlockLogitsInto implements MultiBlockScorer's logit-domain half:
// one double-gathered GEMM per layer matrix, accumulated in layer order — the
// same left-to-right sum over layers as scoreNodes — then the readout scaling
// over the whole batch, which is part of the logit (the sigmoid's argument),
// not of the sigmoid.
func (m *NGCF) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int) {
	checkUsersBlock(dst, users, items)
	m.propagate()
	for l, e := range m.outs {
		if l == 0 {
			tensor.GatherMulMatInto(dst, e, users, 0, e, items, m.cfg.NumUsers)
			continue
		}
		tensor.GatherMulMatAddInto(dst, e, users, 0, e, items, m.cfg.NumUsers)
	}
	scale := m.readoutScale()
	for i, s := range dst.Data {
		dst.Data[i] = s * scale
	}
}

// ScorePairsInto implements MultiBlockScorer's ragged half: one gathered
// pair-dot pass per layer matrix, accumulated in layer order like
// scoreNodes, then the scaled averaged-readout sigmoid.
func (m *NGCF) ScorePairsInto(dst []float64, users []int, items []int) {
	checkPairs(dst, users, items)
	m.propagate()
	for l, e := range m.outs {
		if l == 0 {
			tensor.GatherPairDotInto(dst, e, users, 0, e, items, m.cfg.NumUsers)
			continue
		}
		tensor.GatherPairDotAddInto(dst, e, users, 0, e, items, m.cfg.NumUsers)
	}
	scale := m.readoutScale()
	for i, s := range dst {
		dst[i] = nn.Sigmoid(s * scale)
	}
}

// TrainBatch implements Recommender.
func (m *NGCF) TrainBatch(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	loss := m.accumulateGrad(batch)
	params := []*nn.Param{m.e0}
	params = append(params, m.w1...)
	params = append(params, m.w2...)
	m.opt.Step(params)
	m.dirty = true
	return loss
}

// ngcfChunk is one gradient shard's workspace: the shard's loss sum plus its
// sparse contribution to dL/dE_l for every layer.
type ngcfChunk struct {
	lossSum float64
	dOuts   []*emb.RowGrads
}

// accumulateGrad computes the batch loss and adds all parameter gradients
// without stepping the optimizer. The per-sample readout pass shards into
// fixed chunks merged in chunk order; the layer backward shards its matrix
// products over row ranges (and its ᵀ·-reductions over fixed row shards).
func (m *NGCF) accumulateGrad(batch []Sample) float64 {
	m.propagate()
	n := len(batch)
	scale := m.readoutScale()
	chunks := make([]ngcfChunk, trainChunks(n))
	forChunks(n, m.workers, func(c, lo, hi int) {
		ws := ngcfChunk{dOuts: make([]*emb.RowGrads, m.cfg.Layers+1)}
		for l := range ws.dOuts {
			ws.dOuts[l] = emb.NewRowGrads(m.cfg.Dim)
		}
		for _, smp := range batch[lo:hi] {
			un, vn := smp.User, m.itemNode(smp.Item)
			pred := m.scoreNodes(un, vn)
			ws.lossSum += nn.BCEOne(pred, smp.Label)
			g := (pred - smp.Label) / float64(n) * scale
			for l, e := range m.outs {
				ws.dOuts[l].Axpy(un, g, e.Row(vn))
				ws.dOuts[l].Axpy(vn, g, e.Row(un))
			}
		}
		chunks[c] = ws
	})

	// dL/dE_l for every layer from the concatenated dot-product readout,
	// merged in chunk order.
	nNodes := m.cfg.NumUsers + m.cfg.NumItems
	dOuts := make([]*tensor.Matrix, m.cfg.Layers+1)
	for l := range dOuts {
		dOuts[l] = tensor.New(nNodes, m.cfg.Dim)
	}
	var lossSum float64
	for _, ws := range chunks {
		lossSum += ws.lossSum
		for l, acc := range ws.dOuts {
			acc.AddToRows(dOuts[l])
		}
	}

	// Back through the layers; dOuts[l-1] accumulates the propagated term.
	for l := m.cfg.Layers - 1; l >= 0; l-- {
		dZ := nn.LeakyReLUBackward(m.zs[l], dOuts[l+1], ngcfAlpha)
		m.w1[l].Grad.AddInPlace(tensor.MatMulATBPar(m.ps[l], dZ, m.workers))
		m.w2[l].Grad.AddInPlace(tensor.MatMulATBPar(m.hs[l], dZ, m.workers))

		dP := tensor.MatMulABTPar(dZ, m.w1[l].W, m.workers)
		dH := tensor.MatMulABTPar(dZ, m.w2[l].W, m.workers)

		// E_{l-1} enters through three paths:
		//   P  = (Â+I)E      -> (Â+I)ᵀ dP      (operator is symmetric)
		//   H  = Q ⊙ E       -> dH ⊙ Q  directly
		//   Q  = Â E         -> Âᵀ (dH ⊙ E)
		dOuts[l].AddInPlace(m.adjSelf.MulDensePar(dP, m.workers))
		dOuts[l].AddInPlace(tensor.Hadamard(dH, m.qs[l]))
		dOuts[l].AddInPlace(m.adj.MulDensePar(tensor.Hadamard(dH, m.outs[l]), m.workers))
	}
	m.e0.Grad.AddInPlace(dOuts[0])
	return lossSum / float64(n)
}
