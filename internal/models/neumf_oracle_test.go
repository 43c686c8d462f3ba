package models

// The allocating NeuMF forward, backward and TrainBatch the pooled-workspace
// engine in neumf.go replaced, kept verbatim as its reference (the fields
// they read, tower and out, are now two slices of NeuMF.layers; the
// allocating Dense and ReLU forms they call are copied here with them), and
// the tests that pin
// the live engine to it bit for bit.

import (
	"fmt"
	"math"
	"testing"

	"ptffedrec/internal/emb"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

func (m *NeuMF) tower() []*nn.Dense { return m.layers[:len(m.layers)-1] }
func (m *NeuMF) out() *nn.Dense     { return m.layers[len(m.layers)-1] }

// denseLayers returns the tower plus the output head, in forward order — the
// layer order the chunk workspaces are laid out in.
func (m *NeuMF) denseLayers() []*nn.Dense {
	return append(append([]*nn.Dense(nil), m.tower()...), m.out())
}

// denseBackwardInto is the accumulating layer backward the oracle was
// written against: dW and db are added into caller-provided accumulators and
// dx is returned as a new matrix.
func denseBackwardInto(d *nn.Dense, x, dy, wGrad, bGrad *tensor.Matrix) *tensor.Matrix {
	if dy.Cols != d.Out || x.Rows != dy.Rows {
		panic(fmt.Sprintf("nn: Dense %s backward shapes x=%dx%d dy=%dx%d",
			d.W.Name, x.Rows, x.Cols, dy.Rows, dy.Cols))
	}
	wGrad.AddInPlace(matMulATB(x, dy))
	brow := bGrad.Row(0)
	for i := 0; i < dy.Rows; i++ {
		tensor.AddVec(dy.Row(i), brow)
	}
	return matMulABT(dy, d.W.W)
}

// denseBackward is the layer's accumulating backward: dW and db are added
// into the layer's own gradients.
func denseBackward(d *nn.Dense, x, dy *tensor.Matrix) *tensor.Matrix {
	return denseBackwardInto(d, x, dy, d.W.Grad, d.B.Grad)
}

// denseForward is d's forward into a new matrix.
func denseForward(d *nn.Dense, x *tensor.Matrix) *tensor.Matrix {
	return d.ForwardInto(tensor.New(x.Rows, d.Out), x)
}

// relu and reluBackward are the allocating activation forms, as plain loops:
// relu is max(0, x), x where x > 0, else +0 (−0 and NaN included), and
// reluBackward masks dy to +0 where x ≤ 0, keeping it where x is NaN.
func relu(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

func reluBackward(x, dy *tensor.Matrix) *tensor.Matrix {
	dx := dy.Clone()
	for i, v := range x.Data {
		if v <= 0 {
			dx.Data[i] = 0
		}
	}
	return dx
}

// matMulATB returns aᵀ·b and matMulABT a·bᵀ as new matrices.
func matMulATB(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Cols, b.Cols)
	tensor.MatMulATBInto(out, a, b)
	return out
}

func matMulABT(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, b.Rows)
	tensor.MatMulABTInto(out, a, b, tensor.New(b.Cols, b.Rows))
	return out
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
	for _, d := range m.tower() {
		z := denseForward(d, cur)
		a := relu(z)
		zs = append(zs, z)
		as = append(as, a)
		cur = a
	}
	logits := denseForward(m.out(), cur)
	preds = make([]float64, len(batch))
	for i := range preds {
		preds[i] = nn.Sigmoid(logits.At(i, 0))
	}
	return x, zs, as, preds
}

// backward pushes dL/dlogit through the tower, accumulating parameter
// gradients, and returns the embedding-row gradients (what the tables'
// pending sets held before they moved out of the tables). It does not step
// the optimizer.
func (m *NeuMF) backward(batch []Sample, x *tensor.Matrix, zs, as []*tensor.Matrix, dlogits []float64) (users, items *emb.RowGrads) {
	dy := tensor.FromSlice(len(batch), 1, dlogits)
	grad := denseBackward(m.out(), as[len(as)-1], dy)
	for i := len(m.tower()) - 1; i >= 0; i-- {
		grad = reluBackward(zs[i], grad)
		input := x
		if i > 0 {
			input = as[i-1]
		}
		grad = denseBackward(m.tower()[i], input, grad)
	}
	users, items = emb.NewRowGrads(m.cfg.Dim), emb.NewRowGrads(m.cfg.Dim)
	for i, smp := range batch {
		row := grad.Row(i)
		users.Add(smp.User, row[:m.cfg.Dim])
		items.Add(smp.Item, row[m.cfg.Dim:])
	}
	return users, items
}

// neumfChunk is one gradient shard's workspace: per-layer parameter
// gradients (aligned with denseLayers) plus embedding-row gradients.
type neumfChunk struct {
	lossSum      float64
	wGrads       []*tensor.Matrix
	bGrads       []*tensor.Matrix
	users, items *emb.RowGrads
}

// trainBatchOracle is the replaced TrainBatch. The batch is sharded into
// fixed chunks: each chunk runs its own tower forward/backward into a private
// workspace (the shared weights are read-only until the optimizer step), then
// the workspaces merge in chunk order and a single Adam step applies.
func (m *NeuMF) trainBatchOracle(batch []Sample) float64 {
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
			users: emb.NewRowGrads(m.cfg.Dim),
			items: emb.NewRowGrads(m.cfg.Dim),
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
		grad := denseBackwardInto(m.out(), as[len(as)-1], dy, ws.wGrads[last], ws.bGrads[last])
		for i := len(m.tower()) - 1; i >= 0; i-- {
			grad = reluBackward(zs[i], grad)
			input := x
			if i > 0 {
				input = as[i-1]
			}
			grad = denseBackwardInto(m.tower()[i], input, grad, ws.wGrads[i], ws.bGrads[i])
		}
		for i, smp := range sub {
			row := grad.Row(i)
			ws.users.Add(smp.User, row[:m.cfg.Dim])
			ws.items.Add(smp.Item, row[m.cfg.Dim:])
		}
		chunks[c] = ws
	})

	var lossSum float64
	users, items := emb.NewRowGrads(m.cfg.Dim), emb.NewRowGrads(m.cfg.Dim)
	for _, ws := range chunks {
		lossSum += ws.lossSum
		for i, d := range layers {
			d.W.Grad.AddInPlace(ws.wGrads[i])
			d.B.Grad.AddInPlace(ws.bGrads[i])
		}
		ws.users.AddTo(users)
		ws.items.AddTo(items)
	}
	nn.Adam(m.cfg.LR, m.params)
	m.users.Step(users)
	m.items.Step(items)
	return lossSum / float64(n)
}

// scoreItemsOracle is NeuMF's per-item reference, the body ScoreItemsInto
// had before it ran the block scorer's chunked forwards: one allocating
// forward over the whole item list.
func (m *NeuMF) scoreItemsOracle(u int, items []int) []float64 {
	batch := make([]Sample, len(items))
	for i, v := range items {
		batch[i] = Sample{User: u, Item: v}
	}
	_, _, _, preds := m.forward(batch)
	return preds
}

// clientNeuMFConfig is the shape every federated client trains: a one-user
// universe over lazily materialised embedding rows.
func clientNeuMFConfig() Config {
	return Config{NumUsers: 1, NumItems: 400, Dim: 32, LR: 0.01, Layers: 3, Lazy: true, Seed: 9}
}

// neumfBatch draws a batch with hard and soft labels and repeated rows.
func neumfBatch(s *rng.Stream, cfg Config, n int) []Sample {
	batch := make([]Sample, n)
	for i := range batch {
		label := float64(s.Intn(2))
		if s.Intn(3) == 0 {
			label = s.Float64()
		}
		batch[i] = Sample{User: s.Intn(cfg.NumUsers), Item: s.Intn(cfg.NumItems), Label: label}
	}
	return batch
}

// TestNeuMFTrainBatchMatchesOracle trains twin models, one through the live
// TrainBatch and one through the oracle, on the same batches: every loss and —
// through stateDigest, which covers every W, B, materialised embedding row
// and both Adam moments with their step counts — the whole model state must
// agree bit for bit after every step. The client shape runs one shard
// per batch (gradients written straight into the zero Grad matrices); the
// server shape at batch 1024 runs four shards and the chunk-order merge.
func TestNeuMFTrainBatchMatchesOracle(t *testing.T) {
	server := Config{NumUsers: 60, NumItems: 90, Dim: 8, LR: 0.01, Layers: 3, Seed: 4}
	cases := []struct {
		name    string
		cfg     Config
		batch   int
		workers int
	}{
		{"client/batch1", clientNeuMFConfig(), 1, 0},
		{"client/batch23", clientNeuMFConfig(), 23, 0},
		{"client/batch64", clientNeuMFConfig(), 64, 0},
		{"server/batch1024/workers1", server, 1024, 1},
		{"server/batch1024/workers2", server, 1024, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.TrainWorkers = tc.workers
			live := NewNeuMF(cfg, rng.New(cfg.Seed))
			oracle := NewNeuMF(cfg, rng.New(cfg.Seed))
			s := rng.New(77)
			for step := 0; step < 20; step++ {
				batch := neumfBatch(s, cfg, tc.batch)
				got, want := live.TrainBatch(batch), oracle.trainBatchOracle(batch)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: loss %v, oracle %v", step, got, want)
				}
				if stateDigest(t, live) != stateDigest(t, oracle) {
					t.Fatalf("step %d: model state differs from the oracle's", step)
				}
			}
			items := []int{0, 3, 3, cfg.NumItems - 1}
			got := make([]float64, len(items))
			scoreOneUser(live, got, 0, items)
			want := oracle.scoreItemsOracle(0, items)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("score[%d] = %v, oracle %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestNeuMFClientTrainBatchSteadyStateAllocs pins the client batch at zero
// allocations once its embedding rows exist: the workspace is borrowed, the
// gradients land in place, and nothing is built per call.
func TestNeuMFClientTrainBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := clientNeuMFConfig()
	m := NewNeuMF(cfg, rng.New(cfg.Seed))
	batch := neumfBatch(rng.New(5), cfg, 64)
	for i := 0; i < 3; i++ {
		m.TrainBatch(batch)
	}
	if allocs := testing.AllocsPerRun(20, func() { m.TrainBatch(batch) }); allocs != 0 {
		t.Fatalf("steady-state client TrainBatch allocates %v times per call, want 0", allocs)
	}
}

// TestMFClientTrainBatchSteadyStateAllocs is the same pin for an MF client:
// the batch accumulates straight into a pooled workspace's row gradients,
// which the lazy tables step on.
func TestMFClientTrainBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := clientNeuMFConfig()
	m := NewMF(cfg, rng.New(cfg.Seed))
	batch := neumfBatch(rng.New(5), cfg, 64)
	for i := 0; i < 3; i++ {
		m.TrainBatch(batch)
	}
	if allocs := testing.AllocsPerRun(20, func() { m.TrainBatch(batch) }); allocs != 0 {
		t.Fatalf("steady-state MF client TrainBatch allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkNeuMFClientTrainBatch is one 64-sample client step (forward,
// backward, Adam) at the paper's widths. Stepping one batch over and over
// drives the tower's Adam state subnormal past about 10 000 steps, where
// every step slows down, so every neumfBenchRestart steps continue on a
// fresh model in the same starting state: all of them are built, and warmed
// by one step, before the timer starts, and switching allocates nothing.
func BenchmarkNeuMFClientTrainBatch(b *testing.B) {
	cfg := clientNeuMFConfig()
	batch := neumfBatch(rng.New(5), cfg, 64)
	ms := make([]*NeuMF, (b.N+neumfBenchRestart-1)/neumfBenchRestart)
	for i := range ms {
		ms[i] = NewNeuMF(cfg, rng.New(cfg.Seed))
		ms[i].TrainBatch(batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		ms[i/neumfBenchRestart].TrainBatch(batch)
	}
}

// neumfBenchRestart is how many steps BenchmarkNeuMFClientTrainBatch takes
// on one model.
const neumfBenchRestart = 4096
