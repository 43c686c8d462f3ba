package models

import (
	"sync"

	"ptffedrec/internal/emb"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/par"
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
//
// Every layer, forward and backward, runs as passes over the nodes in
// nodeChunk-row chunks on the TrainWorkers pool. A chunk writes only its own
// rows, each with the serial per-row operation order, so the result is the
// same for any worker count.
type NGCF struct {
	cfg     Config
	workers int
	e0      *nn.Param
	w1      []*nn.Param // per layer, d×d
	w2      []*nn.Param
	params  []*nn.Param // E⁰, every W1, every W2: what Adam steps
	opt     *nn.Adam

	adj, adjSelf *tensor.CSR
	nodes        []int // 0 … U+V−1: the row lists a chunk's SpMMs take

	// propagation caches reused by scoring and backward, allocated once;
	// outs[0] is E⁰ itself
	outs  []*tensor.Matrix // E_0..E_L (post-activation)
	zs    []*tensor.Matrix // Z_1..Z_L (pre-activation)
	ps    []*tensor.Matrix // P_l = (Â+I)E_{l-1}
	qs    []*tensor.Matrix // Q_l = Â E_{l-1}
	hs    []*tensor.Matrix // H_l = Q_l ⊙ E_{l-1}
	dirty bool

	ws *sync.Pool // lends backward scratch; shared by every NGCF of the shape
}

// ngcfShape keys ngcfPools, the backward-scratch pools.
type ngcfShape struct{ nodes, dim, layers int }

var ngcfPools sync.Map // ngcfShape → *sync.Pool

// NewNGCF builds the model over the empty graph, whose Â has no entries and
// whose Â+I is the identity (call SetGraph).
func NewNGCF(cfg Config, s *rng.Stream) *NGCF {
	n := cfg.NumUsers + cfg.NumItems
	m := &NGCF{
		cfg:     cfg,
		workers: resolveTrainWorkers(cfg),
		e0:      nn.NewParam("ngcf.E0", n, cfg.Dim),
		opt:     nn.NewAdam(cfg.LR),
		nodes:   make([]int, n),
		dirty:   true,
		ws:      shapePool(&ngcfPools, ngcfShape{n, cfg.Dim, cfg.Layers}, newNGCFWS),
	}
	nn.Normal(s.Derive("e0"), m.e0.W, 0.1)
	m.outs = []*tensor.Matrix{m.e0.W}
	for l := 0; l < cfg.Layers; l++ {
		w1 := nn.NewParam("ngcf.W1", cfg.Dim, cfg.Dim)
		w2 := nn.NewParam("ngcf.W2", cfg.Dim, cfg.Dim)
		nn.Xavier(s.DeriveN("w1", l), w1.W, cfg.Dim, cfg.Dim)
		nn.Xavier(s.DeriveN("w2", l), w2.W, cfg.Dim, cfg.Dim)
		m.w1 = append(m.w1, w1)
		m.w2 = append(m.w2, w2)
		for _, c := range []*[]*tensor.Matrix{&m.outs, &m.zs, &m.ps, &m.qs, &m.hs} {
			*c = append(*c, tensor.New(n, cfg.Dim))
		}
	}
	m.params = append(append([]*nn.Param{m.e0}, m.w1...), m.w2...)
	m.adj = tensor.NewCSR(n, n, nil)
	m.adjSelf = &tensor.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := range n {
		m.nodes[i] = i
		m.adjSelf.RowPtr[i+1] = i + 1
		m.adjSelf.ColIdx[i] = i
		m.adjSelf.Val[i] = 1
	}
	return m
}

// Name implements Recommender.
func (m *NGCF) Name() string { return string(KindNGCF) }

// SetGraph implements GraphRecommender: both propagation operators are
// assembled straight into the model's reused CSR buffers.
func (m *NGCF) SetGraph(inc *graph.Incremental) {
	if inc.NumUsers() != m.cfg.NumUsers || inc.NumItems() != m.cfg.NumItems {
		panic("models: NGCF graph universe mismatch")
	}
	m.adj = inc.AdjInto(m.adj, m.workers)
	m.adjSelf = inc.AdjSelfInto(m.adjSelf, m.workers)
	m.dirty = true
}

// propagate fills the layer caches if stale: one pass over the nodes per
// layer.
func (m *NGCF) propagate() {
	if !m.dirty {
		return
	}
	for l := 0; l < m.cfg.Layers; l++ {
		m.overNodes(ngcfForward, l, nil)
	}
	m.dirty = false
}

// WarmScoring implements Warmer: it forces the propagation caches so
// concurrent scoring calls are pure reads.
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
		s += tensor.Dot(e.Row(un), e.Row(vn))
	}
	return nn.Sigmoid(s * m.readoutScale())
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

// TrainBatch implements Recommender.
func (m *NGCF) TrainBatch(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	loss := m.accumulateGrad(batch)
	m.opt.Step(m.params)
	m.dirty = true
	return loss
}

// ngcfWS is the backward pass's scratch: borrowed for one accumulateGrad,
// overwritten by each use.
type ngcfWS struct {
	chunks []ngcfChunk // per gradient shard of the batch
	// For the layer from E_l to E_{l+1}: d[0] holds dL/dE_{l+1}, masked in
	// place into dL/dZ and then spent as scratch; d[1] collects dL/dE_l.
	d           [2]*tensor.Matrix
	dP, dH, dHE *tensor.Matrix      // dL/dP, dL/dH, dL/dH ⊙ E_l
	wts         [2]*tensor.Matrix   // W1ᵀ, W2ᵀ
	partials    [2][]*tensor.Matrix // per node chunk: its rows' share of Pᵀ·dZ, Hᵀ·dZ
}

func newNGCFWS(s ngcfShape) *ngcfWS {
	ws := &ngcfWS{dP: tensor.New(s.nodes, s.dim), dH: tensor.New(s.nodes, s.dim), dHE: tensor.New(s.nodes, s.dim)}
	for k := range 2 {
		ws.d[k], ws.wts[k] = tensor.New(s.nodes, s.dim), tensor.New(s.dim, s.dim)
		for lo := 0; lo < s.nodes; lo += nodeChunk {
			ws.partials[k] = append(ws.partials[k], tensor.New(s.dim, s.dim))
		}
	}
	return ws
}

// ngcfChunk is one gradient shard's workspace: the shard's loss sum plus its
// sparse contribution to dL/dE_l for every layer.
type ngcfChunk struct {
	lossSum float64
	dOuts   []*emb.RowGrads
}

// seed scores the shard's samples and collects their loss and dL/dE_l rows;
// n is the whole batch's length.
func (ws *ngcfChunk) seed(m *NGCF, shard []Sample, n int) {
	scale := m.readoutScale()
	ws.lossSum = 0
	for _, g := range ws.dOuts {
		g.Reset()
	}
	for _, smp := range shard {
		un, vn := smp.User, m.itemNode(smp.Item)
		pred := m.scoreNodes(un, vn)
		ws.lossSum += nn.BCEOne(pred, smp.Label)
		g := (pred - smp.Label) / float64(n) * scale
		for l, e := range m.outs {
			ws.dOuts[l].Axpy(un, g, e.Row(vn))
			ws.dOuts[l].Axpy(vn, g, e.Row(un))
		}
	}
}

// accumulateGrad computes the batch loss and adds all parameter gradients
// without stepping the optimizer. The per-sample readout pass shards into
// fixed chunks merged in chunk order; each layer's backward is two passes
// over the nodes. dL/dE_l is its readout term, merged in chunk order, plus
// the terms the layer above propagates.
func (m *NGCF) accumulateGrad(batch []Sample) float64 {
	m.propagate()
	ws := m.ws.Get().(*ngcfWS)
	defer m.ws.Put(ws)
	n := len(batch)
	for len(ws.chunks) < trainChunks(n) {
		ch := ngcfChunk{}
		for range m.outs {
			ch.dOuts = append(ch.dOuts, emb.NewRowGrads(m.cfg.Dim))
		}
		ws.chunks = append(ws.chunks, ch)
	}
	chunks := ws.chunks[:trainChunks(n)]
	if m.workers <= 1 {
		for c := range chunks {
			lo, hi := trainChunkBounds(c, n)
			chunks[c].seed(m, batch[lo:hi], n)
		}
	} else {
		forChunks(n, m.workers, func(c, lo, hi int) { chunks[c].seed(m, batch[lo:hi], n) })
	}
	var lossSum float64
	clear(ws.d[0].Data)
	for i := range chunks {
		lossSum += chunks[i].lossSum
		chunks[i].dOuts[m.cfg.Layers].AddToRows(ws.d[0])
	}

	for l := m.cfg.Layers - 1; l >= 0; l-- {
		m.w1[l].W.TransposeInto(ws.wts[0])
		m.w2[l].W.TransposeInto(ws.wts[1])
		m.overNodes(ngcfBackRows, l, ws)
		for k, w := range [2]*nn.Param{m.w1[l], m.w2[l]} {
			sum := ws.partials[k][0]
			for _, p := range ws.partials[k][1:] {
				sum.AddInPlace(p)
			}
			w.Grad.AddInPlace(sum)
		}
		for i := range chunks {
			chunks[i].dOuts[l].AddToRows(ws.d[1])
		}
		m.overNodes(ngcfBackNeighbours, l, ws)
		ws.d[0], ws.d[1] = ws.d[1], ws.d[0]
	}
	m.e0.Grad.AddInPlace(ws.d[0])
	return lossSum / float64(n)
}

// A nodePass is one of NGCF's passes over the nodes, run by overNodes.
type nodePass int

const (
	ngcfForward        nodePass = iota // layer l's P, Q, H, Z and E_{l+1}
	ngcfBackRows                       // dZ, the weight partials, dP, dH and dH ⊙ E_l; d[1] = 0
	ngcfBackNeighbours                 // d[1] += (Â+I)·dP, then dH ⊙ Q, then Â·(dH ⊙ E_l)
)

// nodeChunk is the row count of one chunk of a pass over the nodes. It is a
// semantic constant: the weight gradients sum per chunk, the partials merged
// in chunk order, so it fixes their float association and must not depend on
// the worker count.
const nodeChunk = 1024

// overNodes runs pass p of layer l over every node, chunk by chunk: in order
// when serial, else on the TrainWorkers pool.
func (m *NGCF) overNodes(p nodePass, l int, ws *ngcfWS) {
	if n := len(m.nodes); m.workers <= 1 {
		for lo := 0; lo < n; lo += nodeChunk {
			m.passRows(p, l, ws, lo, min(lo+nodeChunk, n))
		}
	} else {
		par.ForChunks(n, nodeChunk, m.workers, func(lo, hi int) { m.passRows(p, l, ws, lo, hi) })
	}
}

// rowsOf returns rows [lo, hi) of a as a matrix sharing its storage.
func rowsOf(a *tensor.Matrix, lo, hi int) tensor.Matrix {
	return tensor.Matrix{Rows: hi - lo, Cols: a.Cols, Data: a.Data[lo*a.Cols : hi*a.Cols]}
}

// passRows runs pass p of layer l over the node chunk [lo, hi): the chunk's
// SpMM rows, then the row-local steps on the same rows.
func (m *NGCF) passRows(p nodePass, l int, ws *ngcfWS, lo, hi int) {
	nodes, e := m.nodes[lo:hi], rowsOf(m.outs[l], lo, hi)
	pl, q, h, z := rowsOf(m.ps[l], lo, hi), rowsOf(m.qs[l], lo, hi), rowsOf(m.hs[l], lo, hi), rowsOf(m.zs[l], lo, hi)
	switch p {
	case ngcfForward:
		out := rowsOf(m.outs[l+1], lo, hi)
		m.adjSelf.MulDenseRowsInto(&pl, m.outs[l], nodes)
		m.adj.MulDenseRowsInto(&q, m.outs[l], nodes)
		tensor.HadamardInto(&h, &q, &e)
		tensor.MatMulInto(&z, &pl, m.w1[l].W)
		tensor.MatMulInto(&out, &h, m.w2[l].W) // H·W2, parked in the output rows
		z.AddInPlace(&out)
		nn.LeakyReLUInto(&out, &z, ngcfAlpha)
	case ngcfBackRows:
		dz, dp, dh, dhe := rowsOf(ws.d[0], lo, hi), rowsOf(ws.dP, lo, hi), rowsOf(ws.dH, lo, hi), rowsOf(ws.dHE, lo, hi)
		nn.LeakyReLUBackwardInPlace(&z, &dz, ngcfAlpha)
		tensor.MatMulATBInto(ws.partials[0][lo/nodeChunk], &pl, &dz)
		tensor.MatMulATBInto(ws.partials[1][lo/nodeChunk], &h, &dz)
		tensor.MatMulInto(&dp, &dz, ws.wts[0])
		tensor.MatMulInto(&dh, &dz, ws.wts[1])
		tensor.HadamardInto(&dhe, &dh, &e)
		clear(ws.d[1].Data[lo*m.cfg.Dim : hi*m.cfg.Dim])
	case ngcfBackNeighbours:
		// E_l enters layer l+1 through three paths, each term rounded whole
		// before it is added, in this order:
		//   P  = (Â+I)E      -> (Â+I)ᵀ dP      (operator is symmetric)
		//   H  = Q ⊙ E       -> dH ⊙ Q  directly
		//   Q  = Â E         -> Âᵀ (dH ⊙ E)
		dst, tmp, dh := rowsOf(ws.d[1], lo, hi), rowsOf(ws.d[0], lo, hi), rowsOf(ws.dH, lo, hi) // dZ's rows are spent
		m.adjSelf.MulDenseRowsInto(&tmp, ws.dP, nodes)
		dst.AddInPlace(&tmp)
		tensor.HadamardInto(&tmp, &dh, &q)
		dst.AddInPlace(&tmp)
		m.adj.MulDenseRowsInto(&tmp, ws.dHE, nodes)
		dst.AddInPlace(&tmp)
	}
}
