package models

import (
	"sync"

	"ptffedrec/internal/emb"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// NeuMF is the paper's Eq. 1 model: r̂ᵤᵥ = σ(hᵀ · MLP([pᵤ, qᵥ])) with the
// §IV-D tower sizes (2d → 64 → 32 → 16 → 1) and ReLU activations. It is the
// model the service provider assigns to every client.
type NeuMF struct {
	cfg     Config
	workers int
	users   *emb.Table
	items   *emb.Table
	layers  []*nn.Dense // the hidden tower, then the output head hᵀ + bias
	params  []*nn.Param

	// wGrads and bGrads are the layers' own gradient matrices, in layer
	// order — where a single-shard batch writes its gradients.
	wGrads, bGrads []*tensor.Matrix

	// ws lends chunk workspaces to training shards and to concurrent scoring
	// callers (eval workers, the dispersal pool). It is shared by every NeuMF
	// of the same embedding width.
	ws *sync.Pool
}

// neumfSizes returns the layer widths for embedding width dim: the tower's
// input, its three hidden layers and the single logit.
func neumfSizes(dim int) []int { return []int{2 * dim, 64, 32, 16, 1} }

// NewNeuMF builds the MLP recommender with the paper's layer sizes.
func NewNeuMF(cfg Config, s *rng.Stream) *NeuMF {
	m := &NeuMF{cfg: cfg, workers: resolveTrainWorkers(cfg), ws: shapePool(&neumfPools, cfg.Dim, newNeuMFWS)}
	m.users, m.items = newTables(cfg, s)
	sizes := neumfSizes(cfg.Dim)
	last := len(sizes) - 2
	for i := 0; i < last; i++ {
		m.layers = append(m.layers, nn.NewDense("neumf.l", sizes[i], sizes[i+1], s.DeriveN("dense", i)))
	}
	m.layers = append(m.layers, nn.NewDense("neumf.out", sizes[last], 1, s.Derive("out")))
	for _, l := range m.layers {
		m.params = append(m.params, l.Params()...)
		m.wGrads = append(m.wGrads, l.W.Grad)
		m.bGrads = append(m.bGrads, l.B.Grad)
	}
	return m
}

// Name implements Recommender.
func (m *NeuMF) Name() string { return string(KindNeuMF) }

// neumfWS is one chunk's workspace: the forward intermediates scoring and
// training share, and what the backward pass adds to them. Borrowed from the
// model's pool for the duration of one chunk (scoring) or one TrainBatch
// (training) and overwritten by each use, so it carries nothing between them.
//
// Every hidden activation is held only as a CSR of its nonzeros, and every
// product whose left operand is a ReLU output or a ReLU-masked gradient runs
// on that operand's nonzeros: more than half of each hidden layer's
// activations are exactly zero in training. For finite weights and inputs
// the sums are the dense core's bit for bit (densegemm.go).
type neumfWS struct {
	x      *tensor.Matrix   // the chunk's inputs [pᵤ, qᵥ]
	zs     []*tensor.Matrix // per hidden layer: the pre-activation
	acts   []*tensor.CSR    // and the nonzeros of its ReLU
	logits *tensor.Matrix   // the head's output; training turns it into dL/dlogit in place

	// Per layer, head included: dL/d(the layer's input) — masked in place
	// into dL/d(the previous layer's pre-activation) — and scratch for Wᵀ.
	dxs, wts []*tensor.Matrix
	// grad holds the masked gradient's nonzeros for the layer being
	// backpropagated, and w0t the first layer's weight gradient transposed.
	grad *tensor.CSR
	w0t  *tensor.Matrix
	// The embedding-row gradients of the chunk's samples; a one-shard
	// batch's are the pending set the tables step on.
	users, items *emb.RowGrads
	// A shard's private loss sum and per-layer parameter gradients, used
	// when a batch has several shards.
	lossSum        float64
	wGrads, bGrads []*tensor.Matrix

	perRow []*tensor.Matrix // x, zs, logits, dxs: what setRows resizes
}

// setRows makes every per-row matrix of the workspace an n-row window on its
// trainChunkSize-row storage, so a chunk of any size runs over the same
// buffers without building views.
func (ws *neumfWS) setRows(n int) {
	for _, m := range ws.perRow {
		m.Rows, m.Data = n, m.Data[:n*m.Cols]
	}
}

// neumfPools maps an embedding width to the workspace pool of every NeuMF
// that wide.
var neumfPools sync.Map // int → *sync.Pool

func newNeuMFWS(dim int) *neumfWS {
	sizes := neumfSizes(dim)
	ws := &neumfWS{
		x:      tensor.New(trainChunkSize, sizes[0]),
		logits: tensor.New(trainChunkSize, 1),
		grad:   &tensor.CSR{},
		w0t:    tensor.New(sizes[1], sizes[0]),
		users:  emb.NewRowGrads(dim),
		items:  emb.NewRowGrads(dim),
	}
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		if i+2 < len(sizes) { // a hidden layer
			ws.zs = append(ws.zs, tensor.New(trainChunkSize, out))
			ws.acts = append(ws.acts, &tensor.CSR{})
		}
		ws.dxs = append(ws.dxs, tensor.New(trainChunkSize, in))
		ws.wts = append(ws.wts, tensor.New(out, in))
		ws.wGrads = append(ws.wGrads, tensor.New(in, out))
		ws.bGrads = append(ws.bGrads, tensor.New(1, out))
	}
	ws.perRow = append(append([]*tensor.Matrix{ws.x, ws.logits}, ws.zs...), ws.dxs...)
	return ws
}

// forwardWS runs the input chunk assembled in ws.x through the tower over the
// workspace and returns the head's raw logit per row (ws.logits). The first
// layer's input is dense; every later layer's is the previous ReLU's
// nonzeros. The sigmoid, when a caller wants probabilities, is applied at
// its call boundary — σ is element-wise, so deferring it past the chunk loop
// cannot change a value.
func (m *NeuMF) forwardWS(ws *neumfWS) *tensor.Matrix {
	cur := m.layers[0].ForwardInto(ws.zs[0], ws.x)
	for li, l := range m.layers[1:] {
		tensor.ReLUCSRInto(ws.acts[li], cur)
		dst := ws.logits
		if li+1 < len(ws.zs) {
			dst = ws.zs[li+1]
		}
		cur = l.ForwardCSRInto(dst, ws.acts[li])
	}
	return cur
}

// shardGrad runs one gradient shard — sub, out of a batch of n samples —
// forward and backward over ws and returns its loss sum. Its parameter
// gradients are written to wGrads and bGrads (in layer order),
// dL/d(input row) is left in ws.dxs[0] and its user and item halves are
// collected per embedding row in ws.users and ws.items. The shared weights
// are only read.
//
// Each layer's backward is a dense layer's three products — dW = aᵀ·dz,
// db = Σ dz and dx = dz·Wᵀ — on the nonzeros of the ReLU outputs and masked
// gradients: dW = aᵀ·dz as one scattering pass over a's nonzeros (the first
// layer's as (dzᵀ·x)ᵀ) and dx = dz·Wᵀ over dz's; only the head's dx, whose
// left operand is the per-sample dL/dlogit, stays on the dense core.
func (m *NeuMF) shardGrad(ws *neumfWS, sub []Sample, n int, wGrads, bGrads []*tensor.Matrix) float64 {
	d := m.cfg.Dim
	ws.setRows(len(sub))
	for i, smp := range sub {
		row := ws.x.Row(i)
		if i > 0 && smp.User == sub[i-1].User {
			// A client batch has one user, whose row is read once.
			copy(row[:d], ws.x.Row(i-1))
		} else {
			m.users.ReadRow(row[:d], smp.User)
		}
		m.items.ReadRow(row[d:], smp.Item)
	}
	dy := m.forwardWS(ws)
	var lossSum float64
	for i, smp := range sub {
		pred := nn.Sigmoid(dy.Data[i])
		lossSum += nn.BCEOne(pred, smp.Label)
		dy.Data[i] = (pred - smp.Label) / float64(n)
	}
	last := len(m.layers) - 1
	ws.acts[last-1].MulTDenseInto(wGrads[last], dy)
	tensor.SumRowsInto(bGrads[last].Row(0), dy)
	tensor.MatMulABTInto(ws.dxs[last], dy, m.layers[last].W.W, ws.wts[last])
	for li := last - 1; li >= 0; li-- {
		dz := ws.dxs[li+1]
		tensor.ReLUMaskCSRInto(ws.grad, ws.zs[li], dz)
		tensor.SumRowsInto(bGrads[li].Row(0), dz)
		if li > 0 {
			ws.acts[li-1].MulTDenseInto(wGrads[li], dz)
		} else {
			ws.grad.MulTDenseInto(ws.w0t, ws.x)
			ws.w0t.TransposeInto(wGrads[0])
		}
		m.layers[li].W.W.TransposeInto(ws.wts[li])
		ws.grad.MulDenseInto(ws.dxs[li], ws.wts[li])
	}
	ws.users.Reset()
	ws.items.Reset()
	for i, smp := range sub {
		row := ws.dxs[0].Row(i)
		ws.users.Add(smp.User, row[:d])
		ws.items.Add(smp.Item, row[d:])
	}
	return lossSum
}

// TrainBatch implements Recommender. The batch is sharded into fixed chunks:
// each runs its own tower forward/backward over a borrowed workspace (the
// shared weights are read-only until the optimizer step), the shards' private
// gradients merge in chunk order into the first shard's workspace, and a
// single Adam step applies. A batch of one shard — every client batch — has
// nothing to merge: its layer gradients go straight into the layers' Grad
// matrices, which every step leaves zero, and its embedding-row gradients
// are the pending set the tables step on, the same sums the merge would
// produce.
func (m *NeuMF) TrainBatch(batch []Sample) float64 {
	n := len(batch)
	if n == 0 {
		return 0
	}
	var ws *neumfWS
	var lossSum float64
	if n <= trainChunkSize {
		ws = m.ws.Get().(*neumfWS)
		lossSum += m.shardGrad(ws, batch, n, m.wGrads, m.bGrads)
	} else {
		shards := make([]*neumfWS, trainChunks(n))
		forChunks(n, m.workers, func(c, lo, hi int) {
			sh := m.ws.Get().(*neumfWS)
			sh.lossSum = m.shardGrad(sh, batch[lo:hi], n, sh.wGrads, sh.bGrads)
			shards[c] = sh
		})
		ws = shards[0]
		for c, sh := range shards {
			lossSum += sh.lossSum
			for i, l := range m.layers {
				l.W.Grad.AddInPlace(sh.wGrads[i])
				l.B.Grad.AddInPlace(sh.bGrads[i])
			}
			if c > 0 {
				sh.users.AddTo(ws.users)
				sh.items.AddTo(ws.items)
				m.ws.Put(sh)
			}
		}
	}
	nn.Adam(m.cfg.LR, m.params)
	m.users.Step(ws.users)
	m.items.Step(ws.items)
	m.ws.Put(ws)
	return lossSum / float64(n)
}

// scoreChunkSize is the candidate-chunk width of NeuMF's batched scoring: the
// workspace holds one chunk's forward intermediates, so peak memory is
// O(chunk·width) instead of O(|candidates|·width). Each output row of a dense
// forward depends only on its own input row, so chunking never changes the
// scores — the boundaries are a scheduling knob, not a semantic constant; they
// sit at a training shard's width so one workspace serves both.
const scoreChunkSize = trainChunkSize

// ScoreUsersBlockLogitsInto implements MultiBlockScorer's logit-domain half:
// each user's row runs the tower in scoreChunkSize batches, borrowing one
// pooled workspace for the whole batch — ceil(len(items)/chunk) matrix
// products per user instead of len(items) single-row forwards (and their
// per-call allocations), stopping at the output head's raw logit. Every
// forward row depends only on its own (user, item) input row, so the batch
// grouping never changes a logit.
func (m *NeuMF) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int) {
	checkUsersBlock(dst, users, items)
	if len(items) == 0 {
		return
	}
	ws := m.ws.Get().(*neumfWS)
	defer m.ws.Put(ws)
	for i, u := range users {
		m.scoreBlockLogitsWS(ws, dst.Row(i), u, items)
	}
}

// scoreBlockLogitsWS is the chunked-forward core of the multi-user block
// scorer: one user's candidate list streams through the tower in
// scoreChunkSize chunks over the caller's workspace.
func (m *NeuMF) scoreBlockLogitsWS(ws *neumfWS, dst []float64, u int, items []int) {
	d := m.cfg.Dim
	for off := 0; off < len(items); off += scoreChunkSize {
		end := off + scoreChunkSize
		if end > len(items) {
			end = len(items)
		}
		ws.setRows(end - off)
		for i, v := range items[off:end] {
			row := ws.x.Row(i)
			if i == 0 {
				m.users.ReadRow(row[:d], u)
			} else {
				copy(row[:d], ws.x.Row(0))
			}
			m.items.ReadRow(row[d:], v)
		}
		copy(dst[off:end], m.forwardWS(ws).Data)
	}
}
