package models

import (
	"slices"

	"ptffedrec/internal/emb"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/par"
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
// All of it runs over the live rows only, and so does its memory. A row is
// live if it may hold a non-zero adjacency row, gradient or Adam moment:
// every item, plus every user that has had an edge in a graph handed to
// SetGraph or has appeared in a TrainBatch. The list only grows.
// For every other row the adjacency row, the gradient and both moments are
// exact zeros, so the dense computation would add exact zeros to it: its
// readout is the closed form c·e⁰ (written once, e⁰ never moves) and its
// optimizer step is the identity. Skipping those rows therefore changes no
// bit of any weight, moment, readout or score; a federated server that hears
// from a fraction of a percent of its users per round pays for the users it
// has heard from, not for the population, in time and in bytes.
//
// The layout is by live slot: a row's slot is its position in the live list
// (the items, then users in order of first use), and never changes. E⁰ and
// the readout stay dense by node id, because E⁰'s init draws walk every row
// and scoring gathers the readout by node. The six work matrices — the
// gradient, both Adam moments, the two propagation buffers and dL/dE_final —
// hold one row per slot and grow with the list. The adjacency's columns are
// remapped from nodes to slots when it is installed, and each row keeps its
// entry order, so both SpMMs run in slot space and add the same terms in the
// same order as over node ids. Neighbours of a live row are live, so the
// propagation buffers are only ever read at slots the same pass wrote.
type LightGCN struct {
	cfg     Config
	workers int
	e0      *tensor.Matrix  // (U+V)×d, by node
	steps   int             // Adam steps taken: one counter for every row, as an nn.Param keeps
	step    tensor.AdamStep // the step TrainBatch is applying

	adj  *tensor.CSR // Â, rows by node, columns by slot
	live []int       // slot → node
	slot []int32     // node → slot, -1 for a row that is not live

	final     *tensor.Matrix // (U+V)×d layer-mean readout, by node
	dirty     bool           // final's live rows are stale (graph or parameters changed)
	deadStale bool           // final's other rows lack their closed form (first use, Restore)

	// The work matrices, one row per live slot. grad is dL/dE⁰ and mom/vel
	// the Adam moments; layer holds the two propagation buffers (ping-pong in
	// the forward pass; G and Â·G in the backward one) and dF the batch's
	// dL/dE_final, all-zero between batches. The forward pass borrows dF for
	// the readout's running sum by slot and leaves it all-zero again.
	grad, mom, vel, dF tensor.Matrix
	layer              [2]tensor.Matrix
	chunks             []lgcnChunk
}

// NewLightGCN builds the model over the empty graph, whose Â has no entries
// (call SetGraph).
func NewLightGCN(cfg Config, s *rng.Stream) *LightGCN {
	n := cfg.NumUsers + cfg.NumItems
	m := &LightGCN{
		cfg:       cfg,
		workers:   resolveTrainWorkers(cfg),
		e0:        tensor.New(n, cfg.Dim),
		live:      make([]int, cfg.NumItems),
		slot:      make([]int32, n),
		dirty:     true,
		deadStale: true,
	}
	for _, w := range m.work() {
		*w = *tensor.New(cfg.NumItems, cfg.Dim)
	}
	for i := range m.slot {
		m.slot[i] = -1
	}
	for v := range m.live {
		m.live[v] = m.itemNode(v)
		m.slot[m.itemNode(v)] = int32(v)
	}
	nn.Normal(s.Derive("e0"), m.e0, 0.1)
	m.setAdj(tensor.NewCSR(n, n, nil))
	return m
}

// Name implements Recommender.
func (m *LightGCN) Name() string { return string(KindLightGCN) }

// SetGraph implements GraphRecommender: the maintained adjacency is
// assembled straight into the model's reused CSR buffer.
func (m *LightGCN) SetGraph(inc *graph.Incremental) {
	if inc.NumUsers() != m.cfg.NumUsers || inc.NumItems() != m.cfg.NumItems {
		panic("models: LightGCN graph universe mismatch")
	}
	m.setAdj(inc.AdjInto(m.adj, m.workers))
}

// setAdj installs a new adjacency, makes every user it connects live and
// remaps its columns to slots in place (the model owns adj: the constructor
// builds it, SetGraph's AdjInto refills it). Â is symmetric, so every node
// its columns name is then live.
func (m *LightGCN) setAdj(adj *tensor.CSR) {
	for u := 0; u < m.cfg.NumUsers; u++ {
		if adj.RowNNZ(u) > 0 {
			m.markLive(u)
		}
	}
	for p, i := range adj.ColIdx {
		adj.ColIdx[p] = int(m.slot[i])
	}
	adj.Cols = len(m.live)
	m.adj = adj
	m.dirty = true
}

// markLive adds row i to the live list, growing every work matrix by a zero
// row, and returns its slot. A row's closed-form readout is what the live
// computation yields for it while its adjacency row is empty, so joining the
// list does not by itself stale the propagation cache.
func (m *LightGCN) markLive(i int) int {
	if s := m.slot[i]; s >= 0 {
		return int(s)
	}
	m.slot[i] = int32(len(m.live))
	m.live = append(m.live, i)
	for _, w := range m.work() {
		// Storage grows geometrically, as append's does: amortised O(d) a row.
		w.Data = slices.Grow(w.Data, w.Cols)[:len(w.Data)+w.Cols]
		w.Rows++
	}
	return len(m.live) - 1
}

// work returns the six slot-indexed work matrices.
func (m *LightGCN) work() [6]*tensor.Matrix {
	return [6]*tensor.Matrix{&m.grad, &m.mom, &m.vel, &m.dF, &m.layer[0], &m.layer[1]}
}

// propagate returns the cached layer-mean embeddings, recomputing the live
// rows when the parameters or graph changed. The first layer reads E⁰'s live
// rows copied into slot order; each layer is one pass over the live list on
// the TrainWorkers pool, bitwise-identical for any worker count. The readout
// is summed by slot, c·E⁰ + c·Â·E⁰ + …, in contiguous rows, and the last
// layer writes each live row's sum into final by node.
func (m *LightGCN) propagate() *tensor.Matrix {
	if !m.dirty && !m.deadStale {
		return m.final
	}
	c := 1.0 / float64(m.cfg.Layers+1)
	e0 := m.e0
	if m.final == nil {
		m.final = tensor.New(e0.Rows, e0.Cols)
	}
	final := m.final
	if m.deadStale {
		for u := 0; u < m.cfg.NumUsers; u++ {
			if m.slot[u] >= 0 {
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
	in := &m.layer[1]
	m.overLive(seedLayers, in, nil)
	for l := 0; l < m.cfg.Layers; l++ {
		out, p := &m.layer[l&1], forwardLayer
		if l == m.cfg.Layers-1 {
			p = lastLayer
		}
		m.overLive(p, out, in)
		in = out
	}
	m.dirty = false
	return final
}

// WarmScoring implements Warmer: it forces the propagation cache so
// concurrent scoring calls are pure reads.
func (m *LightGCN) WarmScoring() { m.propagate() }

func (m *LightGCN) itemNode(v int) int { return m.cfg.NumUsers + v }

// ScoreUsersBlockLogitsInto implements MultiBlockScorer's logit-domain half:
// one double-gathered GEMM against the propagated embedding matrix produces
// the whole user batch's raw dot products.
func (m *LightGCN) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int) {
	checkUsersBlock(dst, users, items)
	f := m.propagate()
	tensor.GatherMulMatInto(dst, f, users, 0, f, items, m.cfg.NumUsers)
}

// LogitBoundsInto implements LogitBounder from the readout rows the scores
// multiply.
func (m *LightGCN) LogitBoundsInto(dst []float64, users, items []int) {
	checkBounds(dst, users, items)
	f := m.propagate()
	for i, u := range users {
		dst[i] = rowBound(f.Row(u))
	}
	for j, v := range items {
		dst[len(users)+j] = rowBound(f.Row(m.itemNode(v)))
	}
}

// TrainBatch implements Recommender.
func (m *LightGCN) TrainBatch(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	loss := m.accumulateGrad(batch)
	m.steps++
	m.step = tensor.NewAdamStep(m.cfg.LR, m.steps, true)
	m.overLive(adamStep, nil, nil)
	m.dirty = true
	return loss
}

// A livePass is one of LightGCN's passes over the live slots. overLive runs
// it a chunk of slots at a time; each chunk writes only its own slots' rows
// (by slot, or by node in E⁰ and the readout), so the result is the same for
// any chunking and worker count. The forward pass's readout sum is dF.
type livePass int

const (
	seedLayers    livePass = iota // out = E⁰ by slot, and the readout sum = c·E⁰ (final itself with no layers)
	forwardLayer                  // out = Â·in, then sum += c·out
	lastLayer                     // forwardLayer, then final = sum by node and sum = 0
	backwardLayer                 // out = Â·in, then out = c·dF + out
	seedGrad                      // out = c·dF
	addGrad                       // grad += in
	adamStep                      // the Adam step on E⁰'s live rows, which zeroes grad
)

// liveChunk is the slot count of one chunk of a pass over the live slots: a
// scheduling knob, never a factor in any result. Small enough to balance the
// popular items' long adjacency rows over the workers.
const liveChunk = 256

// overLive runs pass p over every live slot: inline when serial, else in
// liveChunk-slot chunks on the TrainWorkers pool.
func (m *LightGCN) overLive(p livePass, out, in *tensor.Matrix) {
	if m.workers <= 1 {
		m.passRows(p, out, in, 0, len(m.live))
		return
	}
	par.ForChunks(len(m.live), liveChunk, m.workers, func(lo, hi int) { m.passRows(p, out, in, lo, hi) })
}

// passRows runs pass p over live slots [lo, hi). A layer runs its SpMM on the
// chunk's rows and then its elementwise step on the same rows, while they are
// still in cache.
func (m *LightGCN) passRows(p livePass, out, in *tensor.Matrix, lo, hi int) {
	d := m.cfg.Dim
	c := 1.0 / float64(m.cfg.Layers+1)
	switch p {
	case seedLayers:
		for s := lo; s < hi; s++ {
			e0row, sum := m.e0.Row(m.live[s]), m.dF.Row(s)
			if m.cfg.Layers == 0 {
				sum = m.final.Row(m.live[s])
			}
			for k, v := range e0row {
				sum[k] = v * c
			}
			copy(out.Row(s), e0row)
		}
	case forwardLayer, lastLayer, backwardLayer:
		rows := tensor.Matrix{Rows: hi - lo, Cols: d, Data: out.Data[lo*d : hi*d]}
		m.adj.MulDenseRowsInto(&rows, in, m.live[lo:hi])
		dF := m.dF.Data[lo*d : hi*d] // forward: the readout sum
		if p == backwardLayer {
			for k, v := range dF {
				rows.Data[k] = float64(v*c) + rows.Data[k] // rounded product, then the sum: never fused
			}
			return
		}
		tensor.Axpy(c, rows.Data, dF)
		if p == lastLayer {
			for s, i := range m.live[lo:hi] {
				copy(m.final.Row(i), dF[s*d:(s+1)*d])
			}
			clear(dF)
		}
	case seedGrad:
		g := out.Data[lo*d : hi*d]
		for k, v := range m.dF.Data[lo*d : hi*d] {
			g[k] = v * c
		}
	case addGrad:
		tensor.AddVec(in.Data[lo*d:hi*d], m.grad.Data[lo*d:hi*d])
	case adamStep:
		for s := lo; s < hi; s++ {
			tensor.AdamUpdate(m.e0.Row(m.live[s]), m.mom.Row(s), m.vel.Row(s), m.grad.Row(s), &m.step)
		}
	}
}

// lgcnChunk is one gradient shard's workspace: the shard's loss sum and its
// sparse contribution to dL/dE_final, by slot.
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
		pred := nn.Sigmoid(tensor.Dot(f.Row(un), f.Row(vn)))
		ws.lossSum += nn.BCEOne(pred, smp.Label)
		g := (pred - smp.Label) / float64(n)
		ws.df.Axpy(int(m.slot[un]), g, f.Row(vn))
		ws.df.Axpy(int(m.slot[vn]), g, f.Row(un))
	}
}

// accumulateGrad computes the batch loss and adds dL/dE⁰ into grad without
// stepping the optimizer. The per-sample score/seed pass is sharded into
// fixed chunks merged in chunk order; the propagation backward is a pass over
// the live list per layer. Every pass runs in slot space.
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
	dF := &m.dF
	var lossSum float64
	for i := range chunks {
		lossSum += chunks[i].lossSum
		chunks[i].df.AddToRows(dF)
	}

	// Back through the propagation: G_L = c·dF, G_{l-1} = c·dF + Â·G_l,
	// each layer written to the spare buffer, which then becomes G.
	g, buf := &m.layer[0], &m.layer[1]
	m.overLive(seedGrad, g, nil)
	for l := m.cfg.Layers; l >= 1; l-- {
		m.overLive(backwardLayer, buf, g)
		g, buf = buf, g
	}
	m.overLive(addGrad, nil, g)
	clear(dF.Data)
	return lossSum / float64(n)
}
