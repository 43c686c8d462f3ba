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
	tower   []*nn.Dense // hidden layers
	out     *nn.Dense   // hᵀ + bias
	opt     *nn.Adam
	params  []*nn.Param

	// scoreWS pools batched-scoring workspaces so concurrent block-scoring
	// callers (eval workers, the dispersal pool) each borrow a private one
	// instead of allocating per-chunk forward matrices.
	scoreWS sync.Pool
}

// NewNeuMF builds the MLP recommender with the paper's layer sizes.
func NewNeuMF(cfg Config, s *rng.Stream) *NeuMF {
	hy := emb.DefaultAdam(cfg.LR)
	m := &NeuMF{cfg: cfg, workers: resolveTrainWorkers(cfg), opt: nn.NewAdam(cfg.LR)}
	if cfg.Lazy {
		m.users = emb.NewLazyTable(s.Derive("u"), cfg.Dim, hy)
		m.items = emb.NewLazyTable(s.Derive("v"), cfg.Dim, hy)
	} else {
		m.users = emb.NewTable(s.Derive("u"), cfg.NumUsers, cfg.Dim, hy)
		m.items = emb.NewTable(s.Derive("v"), cfg.NumItems, cfg.Dim, hy)
	}
	sizes := []int{2 * cfg.Dim, 64, 32, 16}
	for i := 0; i+1 < len(sizes); i++ {
		m.tower = append(m.tower, nn.NewDense("neumf.l", sizes[i], sizes[i+1], s.DeriveN("dense", i)))
	}
	m.out = nn.NewDense("neumf.out", sizes[len(sizes)-1], 1, s.Derive("out"))
	for _, d := range m.tower {
		m.params = append(m.params, d.Params()...)
	}
	m.params = append(m.params, m.out.Params()...)
	m.scoreWS.New = func() any { return m.newScoreWS() }
	return m
}

// Name implements Recommender.
func (m *NeuMF) Name() string { return string(KindNeuMF) }

// denseLayers returns the tower plus the output head, in forward order — the
// layer order the chunk workspaces are laid out in.
func (m *NeuMF) denseLayers() []*nn.Dense {
	return append(append([]*nn.Dense(nil), m.tower...), m.out)
}

// forward runs the tower on a batch, returning every intermediate needed by
// backward: the input, each layer's pre-activation and activation, and the
// final probability per row.
func (m *NeuMF) forward(batch []Sample) (x *tensor.Matrix, zs, as []*tensor.Matrix, preds []float64) {
	x = tensor.New(len(batch), 2*m.cfg.Dim)
	for i, smp := range batch {
		row := x.Row(i)
		copy(row[:m.cfg.Dim], m.users.Row(smp.User))
		copy(row[m.cfg.Dim:], m.items.Row(smp.Item))
	}
	cur := x
	for _, d := range m.tower {
		z := d.Forward(cur)
		a := nn.ReLU(z)
		zs = append(zs, z)
		as = append(as, a)
		cur = a
	}
	logits := m.out.Forward(cur)
	preds = make([]float64, len(batch))
	for i := range preds {
		preds[i] = nn.Sigmoid(logits.At(i, 0))
	}
	return x, zs, as, preds
}

// backward pushes dL/dlogit through the tower, accumulating parameter
// gradients and embedding-row gradients. It does not step the optimizer.
func (m *NeuMF) backward(batch []Sample, x *tensor.Matrix, zs, as []*tensor.Matrix, dlogits []float64) {
	dy := tensor.FromSlice(len(batch), 1, dlogits)
	grad := m.out.Backward(as[len(as)-1], dy)
	for i := len(m.tower) - 1; i >= 0; i-- {
		grad = nn.ReLUBackward(zs[i], grad)
		input := x
		if i > 0 {
			input = as[i-1]
		}
		grad = m.tower[i].Backward(input, grad)
	}
	for i, smp := range batch {
		row := grad.Row(i)
		m.users.Accumulate(smp.User, row[:m.cfg.Dim])
		m.items.Accumulate(smp.Item, row[m.cfg.Dim:])
	}
}

// neumfChunk is one gradient shard's workspace: per-layer parameter
// gradients (aligned with denseLayers) plus embedding-row gradients.
type neumfChunk struct {
	lossSum      float64
	wGrads       []*tensor.Matrix
	bGrads       []*tensor.Matrix
	users, items *rowAccum
}

// TrainBatch implements Recommender. The batch is sharded into fixed chunks:
// each chunk runs its own tower forward/backward into a private workspace
// (the shared weights are read-only until the optimizer step), then the
// workspaces merge in chunk order and a single Adam step applies.
func (m *NeuMF) TrainBatch(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	n := len(batch)
	layers := m.denseLayers()
	chunks := make([]neumfChunk, trainChunks(n))
	forChunks(n, m.workers, func(c, lo, hi int) {
		sub := batch[lo:hi]
		x, zs, as, preds := m.forward(sub)
		ws := neumfChunk{
			users: newRowAccum(m.cfg.Dim),
			items: newRowAccum(m.cfg.Dim),
		}
		for _, d := range layers {
			ws.wGrads = append(ws.wGrads, tensor.New(d.In, d.Out))
			ws.bGrads = append(ws.bGrads, tensor.New(1, d.Out))
		}
		dlogits := make([]float64, len(sub))
		for i, smp := range sub {
			ws.lossSum += nn.BCEOne(preds[i], smp.Label)
			dlogits[i] = (preds[i] - smp.Label) / float64(n)
		}
		last := len(layers) - 1
		dy := tensor.FromSlice(len(sub), 1, dlogits)
		grad := m.out.BackwardInto(as[len(as)-1], dy, ws.wGrads[last], ws.bGrads[last])
		for i := len(m.tower) - 1; i >= 0; i-- {
			grad = nn.ReLUBackward(zs[i], grad)
			input := x
			if i > 0 {
				input = as[i-1]
			}
			grad = m.tower[i].BackwardInto(input, grad, ws.wGrads[i], ws.bGrads[i])
		}
		for i, smp := range sub {
			row := grad.Row(i)
			ws.users.add(smp.User, row[:m.cfg.Dim])
			ws.items.add(smp.Item, row[m.cfg.Dim:])
		}
		chunks[c] = ws
	})

	var lossSum float64
	for _, ws := range chunks {
		lossSum += ws.lossSum
		for i, d := range layers {
			d.W.Grad.AddInPlace(ws.wGrads[i])
			d.B.Grad.AddInPlace(ws.bGrads[i])
		}
		ws.users.mergeInto(m.users)
		ws.items.mergeInto(m.items)
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

// ScoreItemsInto is the per-item loop behind ScoreItems; it reuses dst's capacity.
func (m *NeuMF) ScoreItemsInto(dst []float64, u int, items []int) []float64 {
	if len(items) == 0 {
		return scoreBuf(dst, 0)
	}
	batch := make([]Sample, len(items))
	for i, v := range items {
		batch[i] = Sample{User: u, Item: v}
	}
	_, _, _, preds := m.forward(batch)
	out := scoreBuf(dst, len(items))
	return append(out, preds...)
}

// scoreChunkSize is the candidate-chunk width of NeuMF's batched scoring: the
// workspace holds one chunk's forward intermediates, so peak memory is
// O(chunk·width) instead of O(|candidates|·width). Each output row of a dense
// forward depends only on its own input row, so chunking never changes the
// scores — the boundaries are a scheduling knob, not a semantic constant.
const scoreChunkSize = 256

// neumfScoreWS holds one candidate chunk's forward intermediates.
type neumfScoreWS struct {
	x      *tensor.Matrix   // scoreChunkSize × 2d inputs
	zs, as []*tensor.Matrix // per tower layer pre-/post-activation
	logits *tensor.Matrix   // scoreChunkSize × 1
}

// newScoreWS allocates a workspace shaped for the model's tower.
func (m *NeuMF) newScoreWS() *neumfScoreWS {
	ws := &neumfScoreWS{
		x:      tensor.New(scoreChunkSize, 2*m.cfg.Dim),
		logits: tensor.New(scoreChunkSize, 1),
	}
	for _, d := range m.tower {
		ws.zs = append(ws.zs, tensor.New(scoreChunkSize, d.Out))
		ws.as = append(ws.as, tensor.New(scoreChunkSize, d.Out))
	}
	return ws
}

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
	ws := m.scoreWS.Get().(*neumfScoreWS)
	defer m.scoreWS.Put(ws)
	for i, u := range users {
		m.scoreBlockLogitsWS(ws, dst.Row(i), u, items)
	}
}

// scoreBlockLogitsWS is the chunked-forward core of the multi-user block
// scorer: one user's candidate list streams through the tower in
// scoreChunkSize chunks over the caller's workspace.
func (m *NeuMF) scoreBlockLogitsWS(ws *neumfScoreWS, dst []float64, u int, items []int) {
	urow := m.users.Row(u)
	d := m.cfg.Dim
	for off := 0; off < len(items); off += scoreChunkSize {
		end := off + scoreChunkSize
		if end > len(items) {
			end = len(items)
		}
		n := end - off
		x := ws.x.FirstRows(n)
		for i, v := range items[off:end] {
			row := x.Row(i)
			copy(row[:d], urow)
			copy(row[d:], m.items.Row(v))
		}
		m.forwardChunkLogitsWS(ws, dst[off:end], x)
	}
}

// forwardChunkLogitsWS runs one assembled input chunk through the tower over
// the workspace, writing the output head's raw logit per row into dst. The
// sigmoid, when a caller wants probabilities, is applied at the block-scorer
// call boundary — σ is element-wise, so deferring it past the chunk loop
// cannot change a value.
func (m *NeuMF) forwardChunkLogitsWS(ws *neumfScoreWS, dst []float64, x *tensor.Matrix) {
	n := x.Rows
	cur := x
	for li, dl := range m.tower {
		z := dl.ForwardInto(ws.zs[li].FirstRows(n), cur)
		cur = nn.ReLUInto(ws.as[li].FirstRows(n), z)
	}
	logits := m.out.ForwardInto(ws.logits.FirstRows(n), cur)
	for i := 0; i < n; i++ {
		dst[i] = logits.At(i, 0)
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
	ws := m.scoreWS.Get().(*neumfScoreWS)
	defer m.scoreWS.Put(ws)
	d := m.cfg.Dim
	for off := 0; off < len(items); off += scoreChunkSize {
		end := off + scoreChunkSize
		if end > len(items) {
			end = len(items)
		}
		n := end - off
		x := ws.x.FirstRows(n)
		for i := 0; i < n; i++ {
			row := x.Row(i)
			copy(row[:d], m.users.Row(users[off+i]))
			copy(row[d:], m.items.Row(items[off+i]))
		}
		m.forwardChunkLogitsWS(ws, dst[off:end], x)
	}
	sigmoidVec(dst)
}
