package models

// The allocating NGCF propagate, backward and TrainBatch that the per-layer
// passes over reused buffers in ngcf.go replaced, kept verbatim as their
// reference (the tensor and nn kernels they called left the product code with
// them and are copied here), and the tests that pin the live model to them
// bit for bit.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ptffedrec/internal/emb"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/par"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// atbChunkRows is the shard width of MatMulATBPar's ordered reduction.
const atbChunkRows = 1024

// The row-partitioned Par kernels computed every output row as their serial
// forms do, so they gave the serial bits at every worker count; the oracle
// calls the serial forms.
func mulDensePar(a *tensor.CSR, x *tensor.Matrix, _ int) *tensor.Matrix { return a.MulDense(x) }
func matMulPar(a, b *tensor.Matrix, _ int) *tensor.Matrix               { return tensor.MatMul(a, b) }
func matMulABTPar(a, b *tensor.Matrix, _ int) *tensor.Matrix            { return matMulABT(a, b) }

// matMulATBPar is MatMulATBPar: aᵀ·b reduced over fixed atbChunkRows-row
// shards of the shared leading dimension, the per-shard partial products
// merged in shard order.
func matMulATBPar(a, b *tensor.Matrix, workers int) *tensor.Matrix {
	nChunks := (a.Rows + atbChunkRows - 1) / atbChunkRows
	if nChunks <= 1 {
		return matMulATB(a, b)
	}
	partials := make([]*tensor.Matrix, nChunks)
	par.For(nChunks, workers, func(c int) {
		lo := c * atbChunkRows
		hi := min(lo+atbChunkRows, a.Rows)
		partials[c] = matMulATB(tensor.FromSlice(hi-lo, a.Cols, a.Data[lo*a.Cols:hi*a.Cols]),
			tensor.FromSlice(hi-lo, b.Cols, b.Data[lo*b.Cols:hi*b.Cols]))
	})
	out := partials[0]
	for _, p := range partials[1:] {
		out.AddInPlace(p)
	}
	return out
}

// hadamard is tensor.Hadamard: the element-wise product a ⊙ b as a new matrix.
func hadamard(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// leakyReLU is nn.LeakyReLU: max(αx, x) element-wise, as a new matrix.
func leakyReLU(x *tensor.Matrix, alpha float64) *tensor.Matrix {
	out := x.Clone()
	for i, v := range out.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = alpha * v
		}
	}
	return out
}

// leakyReLUBackward is nn.LeakyReLUBackward: dx = dy ⊙ LeakyReLU'(x), as a
// new matrix.
func leakyReLUBackward(x, dy *tensor.Matrix, alpha float64) *tensor.Matrix {
	out := dy.Clone()
	for i, v := range x.Data {
		if v <= 0 {
			out.Data[i] *= alpha
		}
	}
	return out
}

// propagateOracle is the replaced propagate: it fills the layer caches if
// stale, each as a new matrix.
func (m *NGCF) propagateOracle() {
	if !m.dirty && m.outs != nil {
		return
	}
	e := m.e0.W
	m.outs = []*tensor.Matrix{e}
	m.zs, m.ps, m.qs, m.hs = nil, nil, nil, nil
	for l := 0; l < m.cfg.Layers; l++ {
		p := mulDensePar(m.adjSelf, e, m.workers)
		q := mulDensePar(m.adj, e, m.workers)
		h := hadamard(q, e)
		z := matMulPar(p, m.w1[l].W, m.workers)
		z.AddInPlace(matMulPar(h, m.w2[l].W, m.workers))
		e = leakyReLU(z, ngcfAlpha)
		m.ps = append(m.ps, p)
		m.qs = append(m.qs, q)
		m.hs = append(m.hs, h)
		m.zs = append(m.zs, z)
		m.outs = append(m.outs, e)
	}
	m.dirty = false
}

// trainBatchOracle is the replaced TrainBatch.
func (m *NGCF) trainBatchOracle(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	loss := m.accumulateGradOracle(batch)
	params := []*nn.Param{m.e0}
	params = append(params, m.w1...)
	params = append(params, m.w2...)
	nn.Adam(m.cfg.LR, params)
	m.dirty = true
	return loss
}

// accumulateGradOracle is the replaced accumulateGrad. The per-sample readout
// pass shards into fixed chunks merged in chunk order; the layer backward
// shards its matrix products over row ranges (and its ᵀ·-reductions over
// fixed row shards).
func (m *NGCF) accumulateGradOracle(batch []Sample) float64 {
	m.propagateOracle()
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
		dZ := leakyReLUBackward(m.zs[l], dOuts[l+1], ngcfAlpha)
		m.w1[l].Grad.AddInPlace(matMulATBPar(m.ps[l], dZ, m.workers))
		m.w2[l].Grad.AddInPlace(matMulATBPar(m.hs[l], dZ, m.workers))

		dP := matMulABTPar(dZ, m.w1[l].W, m.workers)
		dH := matMulABTPar(dZ, m.w2[l].W, m.workers)

		// E_{l-1} enters through three paths:
		//   P  = (Â+I)E      -> (Â+I)ᵀ dP      (operator is symmetric)
		//   H  = Q ⊙ E       -> dH ⊙ Q  directly
		//   Q  = Â E         -> Âᵀ (dH ⊙ E)
		dOuts[l].AddInPlace(mulDensePar(m.adjSelf, dP, m.workers))
		dOuts[l].AddInPlace(hadamard(dH, m.qs[l]))
		dOuts[l].AddInPlace(mulDensePar(m.adj, hadamard(dH, m.outs[l]), m.workers))
	}
	m.e0.Grad.AddInPlace(dOuts[0])
	return lossSum / float64(n)
}

// ngcfTestGraph draws every user's edges: users with none (a quarter of
// them), and otherwise up to edgesPerUser weighted edges, repeats allowed.
func ngcfTestGraph(s *rng.Stream, cfg Config, edgesPerUser int) edgeRows {
	g := make(edgeRows, cfg.NumUsers)
	for u := range g {
		if s.Intn(4) == 0 {
			continue
		}
		for k := 1 + s.Intn(edgesPerUser); k > 0; k-- {
			g.add(u, s.Intn(cfg.NumItems), 0.2+0.8*s.Float64())
		}
	}
	return g
}

func ngcfTestBatch(s *rng.Stream, cfg Config, n int) []Sample {
	batch := make([]Sample, n)
	for i := range batch {
		batch[i] = Sample{User: s.Intn(cfg.NumUsers), Item: s.Intn(cfg.NumItems), Label: s.Float64()}
	}
	return batch
}

// TestNGCFTrainBatchMatchesOracle trains one NGCF through TrainBatch and one
// through the oracle on the same batches and graphs: every loss, the
// snapshot (E⁰, every W and both Adam moments) after every step, and every
// layer of the readout must agree bit for bit. The graph has 2200 nodes, so
// every pass over the nodes runs in three chunks and the weight gradients
// reduce over three shards; the batch sizes rise and fall across gradient
// shard counts, and the graph changes midway.
func TestNGCFTrainBatchMatchesOracle(t *testing.T) {
	cases := []struct{ layers, workers int }{{3, 1}, {3, 2}, {3, 8}, {1, 2}, {0, 2}}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("layers=%d/workers=%d", tc.layers, tc.workers), func(t *testing.T) {
			cfg := Config{NumUsers: 1500, NumItems: 700, Dim: 8, LR: 0.01, Layers: tc.layers, TrainWorkers: tc.workers, Seed: 9}
			live, oracle := NewNGCF(cfg, rng.New(cfg.Seed)), NewNGCF(cfg, rng.New(cfg.Seed))
			s := rng.New(21)
			for step, n := range []int{2*trainChunkSize + 37, 90, 3 * trainChunkSize, trainChunkSize + 1} {
				if step%2 == 0 {
					inc := ngcfTestGraph(s, cfg, 6).engine(cfg.NumItems)
					live.SetGraph(inc)
					oracle.SetGraph(inc)
				}
				batch := ngcfTestBatch(s, cfg, n)
				got, want := live.TrainBatch(batch), oracle.trainBatchOracle(batch)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: loss %v, oracle %v", step, got, want)
				}
				if !bytes.Equal(snapshotBytes(t, live), snapshotBytes(t, oracle)) {
					t.Fatalf("step %d: model state differs from the oracle's", step)
				}
				live.WarmScoring()
				oracle.propagateOracle()
				for l := range oracle.outs {
					if !sameBits(live.outs[l].Data, oracle.outs[l].Data) {
						t.Fatalf("step %d: readout layer %d differs from the oracle's", step, l)
					}
				}
			}
		})
	}
}

// ngcfProbe builds a server NGCF at a gowalla-small-sized shape — 300 users
// and 420 items (720 nodes), d = 32, 3 layers — with its 256-sample batch.
func ngcfProbe(workers int) (*NGCF, []Sample) {
	cfg := Config{NumUsers: 300, NumItems: 420, Dim: 32, LR: 1e-3, Layers: 3, TrainWorkers: workers, Seed: 3}
	s := rng.New(5)
	m := NewNGCF(cfg, rng.New(cfg.Seed))
	m.SetGraph(ngcfTestGraph(s, cfg, 20).engine(cfg.NumItems))
	return m, ngcfTestBatch(s, cfg, trainChunkSize)
}

// TestNGCFSteadyStateAllocatesNothing pins the buffer reuse: once the layer
// caches exist and the pooled backward scratch has reached the batch's
// working size, a serial TrainBatch plus the scoring warm-up that follows it
// allocates nothing at all.
func TestNGCFSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	m, batch := ngcfProbe(1)
	step := func() {
		m.TrainBatch(batch)
		m.WarmScoring()
	}
	step()
	step()
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("steady-state TrainBatch+WarmScoring allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkNGCFTrainBatch measures one server step with its scoring warm-up
// at ngcfProbe's shape. Run with -benchmem; the serial case reports 0
// allocs/op.
func BenchmarkNGCFTrainBatch(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("nodes=720/workers=%d", workers), func(b *testing.B) {
			m, batch := ngcfProbe(workers)
			m.TrainBatch(batch)
			m.WarmScoring()
			b.ReportAllocs()
			for b.Loop() {
				m.TrainBatch(batch)
				m.WarmScoring()
			}
		})
	}
}
