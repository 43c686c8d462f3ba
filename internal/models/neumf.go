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
	users   embTable
	items   embTable
	layers  []*nn.Dense // the hidden tower, then the output head hᵀ + bias
	opt     *nn.Adam
	params  []*nn.Param

	// wGrads and bGrads are the layers' own gradient matrices, in layer
	// order — where a single-shard batch writes its gradients.
	wGrads, bGrads []*tensor.Matrix

	// ws lends chunk workspaces to training shards and to concurrent scoring
	// callers (eval workers, the dispersal pool). It is shared by every NeuMF
	// of the same embedding width: a federation holds one model per client,
	// but only as many workspaces as there are goroutines in a model at once.
	ws *sync.Pool
}

// neumfSizes returns the layer widths for embedding width dim: the tower's
// input, its three hidden layers and the single logit.
func neumfSizes(dim int) []int { return []int{2 * dim, 64, 32, 16, 1} }

// NewNeuMF builds the MLP recommender with the paper's layer sizes.
func NewNeuMF(cfg Config, s *rng.Stream) *NeuMF {
	hy := emb.DefaultAdam(cfg.LR)
	m := &NeuMF{cfg: cfg, workers: resolveTrainWorkers(cfg), opt: nn.NewAdam(cfg.LR), ws: neumfPool(cfg.Dim)}
	if cfg.Lazy {
		m.users = emb.NewLazyTable(s.Derive("u"), cfg.Dim, hy)
		m.items = emb.NewLazyTable(s.Derive("v"), cfg.Dim, hy)
	} else {
		m.users = emb.NewTable(s.Derive("u"), cfg.NumUsers, cfg.Dim, hy)
		m.items = emb.NewTable(s.Derive("v"), cfg.NumItems, cfg.Dim, hy)
	}
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
type neumfWS struct {
	x      *tensor.Matrix   // the chunk's inputs [pᵤ, qᵥ]
	zs, as []*tensor.Matrix // per hidden layer: pre-activation, activation
	logits *tensor.Matrix   // the head's output; training turns it into dL/dlogit in place

	// Per layer, head included: dL/d(the layer's input) — masked in place
	// into dL/d(the previous layer's pre-activation) — and scratch for Wᵀ.
	dxs, wts []*tensor.Matrix
	// A shard's private gradients, used when a batch has several shards:
	// per-layer parameter gradients and the embedding rows it touched.
	lossSum        float64
	wGrads, bGrads []*tensor.Matrix
	users, items   *rowAccum

	perRow []*tensor.Matrix // x, zs, as, logits, dxs: what setRows resizes
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

func neumfPool(dim int) *sync.Pool {
	if p, ok := neumfPools.Load(dim); ok {
		return p.(*sync.Pool)
	}
	p, _ := neumfPools.LoadOrStore(dim, &sync.Pool{New: func() any { return newNeuMFWS(dim) }})
	return p.(*sync.Pool)
}

func newNeuMFWS(dim int) *neumfWS {
	sizes := neumfSizes(dim)
	ws := &neumfWS{
		x:      tensor.New(trainChunkSize, sizes[0]),
		logits: tensor.New(trainChunkSize, 1),
		users:  newRowAccum(dim),
		items:  newRowAccum(dim),
	}
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		if i+2 < len(sizes) { // a hidden layer
			ws.zs = append(ws.zs, tensor.New(trainChunkSize, out))
			ws.as = append(ws.as, tensor.New(trainChunkSize, out))
		}
		ws.dxs = append(ws.dxs, tensor.New(trainChunkSize, in))
		ws.wts = append(ws.wts, tensor.New(out, in))
		ws.wGrads = append(ws.wGrads, tensor.New(in, out))
		ws.bGrads = append(ws.bGrads, tensor.New(1, out))
	}
	ws.perRow = append(append(append([]*tensor.Matrix{ws.x, ws.logits}, ws.zs...), ws.as...), ws.dxs...)
	return ws
}

// forwardWS runs the input chunk assembled in ws.x through the tower over the
// workspace and returns the head's raw logit per row (ws.logits). The
// sigmoid, when a caller wants probabilities, is applied at its call
// boundary — σ is element-wise, so deferring it past the chunk loop cannot
// change a value.
func (m *NeuMF) forwardWS(ws *neumfWS) *tensor.Matrix {
	last := len(m.layers) - 1
	cur := ws.x
	for li, l := range m.layers[:last] {
		cur = nn.ReLUInto(ws.as[li], l.ForwardInto(ws.zs[li], cur))
	}
	return m.layers[last].ForwardInto(ws.logits, cur)
}

// shardGrad runs one gradient shard — sub, out of a batch of n samples —
// forward and backward over ws and returns its loss sum. Its parameter
// gradients are written to wGrads and bGrads (in layer order) and
// dL/d(input row) is left in ws.dxs[0]. The shared weights are only read.
func (m *NeuMF) shardGrad(ws *neumfWS, sub []Sample, n int, wGrads, bGrads []*tensor.Matrix) float64 {
	d := m.cfg.Dim
	ws.setRows(len(sub))
	for i, smp := range sub {
		row := ws.x.Row(i)
		copy(row[:d], m.users.Row(smp.User))
		copy(row[d:], m.items.Row(smp.Item))
	}
	dy := m.forwardWS(ws)
	var lossSum float64
	for i, smp := range sub {
		pred := nn.Sigmoid(dy.Data[i])
		lossSum += nn.BCEOne(pred, smp.Label)
		dy.Data[i] = (pred - smp.Label) / float64(n)
	}
	for li := len(m.layers) - 1; li >= 0; li-- {
		input := ws.x
		if li > 0 {
			input = ws.as[li-1]
		}
		m.layers[li].BackwardInto(ws.dxs[li], input, dy, wGrads[li], bGrads[li], ws.wts[li])
		dy = ws.dxs[li]
		if li > 0 {
			nn.ReLUBackwardInPlace(ws.zs[li-1], dy)
		}
	}
	return lossSum
}

// TrainBatch implements Recommender. The batch is sharded into fixed chunks:
// each runs its own tower forward/backward over a borrowed workspace (the
// shared weights are read-only until the optimizer step), the shards' private
// gradients merge in chunk order, and a single Adam step applies. A batch of
// one shard — every client batch — has nothing to merge: its gradients go
// straight into the layers' Grad matrices, which every step leaves zero, and
// into the embedding tables, the same sums the merge would produce.
func (m *NeuMF) TrainBatch(batch []Sample) float64 {
	n, d := len(batch), m.cfg.Dim
	if n == 0 {
		return 0
	}
	var lossSum float64
	if n <= trainChunkSize {
		ws := m.ws.Get().(*neumfWS)
		lossSum += m.shardGrad(ws, batch, n, m.wGrads, m.bGrads)
		for i, smp := range batch {
			row := ws.dxs[0].Row(i)
			m.users.Accumulate(smp.User, row[:d])
			m.items.Accumulate(smp.Item, row[d:])
		}
		m.ws.Put(ws)
	} else {
		shards := make([]*neumfWS, trainChunks(n))
		forChunks(n, m.workers, func(c, lo, hi int) {
			ws := m.ws.Get().(*neumfWS)
			ws.lossSum = m.shardGrad(ws, batch[lo:hi], n, ws.wGrads, ws.bGrads)
			ws.users.reset()
			ws.items.reset()
			for i, smp := range batch[lo:hi] {
				row := ws.dxs[0].Row(i)
				ws.users.add(smp.User, row[:d])
				ws.items.add(smp.Item, row[d:])
			}
			shards[c] = ws
		})
		for _, ws := range shards {
			lossSum += ws.lossSum
			for i, l := range m.layers {
				l.W.Grad.AddInPlace(ws.wGrads[i])
				l.B.Grad.AddInPlace(ws.bGrads[i])
			}
			ws.users.mergeInto(m.users)
			ws.items.mergeInto(m.items)
			m.ws.Put(ws)
		}
	}
	m.opt.Step(m.params)
	m.users.Step()
	m.items.Step()
	return lossSum / float64(n)
}

// Score implements Recommender.
func (m *NeuMF) Score(u, v int) float64 {
	return m.ScoreItems(u, []int{v})[0]
}

// ScoreItems implements Recommender.
func (m *NeuMF) ScoreItems(u int, items []int) []float64 {
	return m.ScoreItemsInto(nil, u, items)
}

// ScoreItemsInto is ScoreItems reusing dst's capacity: σ of the chunked
// logit forwards the block scorer runs, over a borrowed workspace.
func (m *NeuMF) ScoreItemsInto(dst []float64, u int, items []int) []float64 {
	out := scoreBuf(dst, len(items))[:len(items)]
	if len(items) == 0 {
		return out
	}
	ws := m.ws.Get().(*neumfWS)
	m.scoreBlockLogitsWS(ws, out, u, items)
	m.ws.Put(ws)
	sigmoidVec(out)
	return out
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
	urow := m.users.Row(u)
	d := m.cfg.Dim
	for off := 0; off < len(items); off += scoreChunkSize {
		end := off + scoreChunkSize
		if end > len(items) {
			end = len(items)
		}
		ws.setRows(end - off)
		for i, v := range items[off:end] {
			row := ws.x.Row(i)
			copy(row[:d], urow)
			copy(row[d:], m.items.Row(v))
		}
		copy(dst[off:end], m.forwardWS(ws).Data)
	}
}

// ScorePairsInto implements MultiBlockScorer's ragged half: (user, item)
// pairs stream through the same pooled chunked logit forwards with a per-row
// user embedding, then the sigmoid. Each forward row depends only on its own
// input row, so pair batching never changes a score.
func (m *NeuMF) ScorePairsInto(dst []float64, users []int, items []int) {
	checkPairs(dst, users, items)
	if len(items) == 0 {
		return
	}
	ws := m.ws.Get().(*neumfWS)
	defer m.ws.Put(ws)
	d := m.cfg.Dim
	for off := 0; off < len(items); off += scoreChunkSize {
		end := off + scoreChunkSize
		if end > len(items) {
			end = len(items)
		}
		ws.setRows(end - off)
		for i := range ws.x.Rows {
			row := ws.x.Row(i)
			copy(row[:d], m.users.Row(users[off+i]))
			copy(row[d:], m.items.Row(items[off+i]))
		}
		copy(dst[off:end], m.forwardWS(ws).Data)
	}
	sigmoidVec(dst)
}
