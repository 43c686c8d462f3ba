package baselines

import (
	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/emb"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// MetaMF keeps a meta-network on the server that generates private,
// personalized item embeddings for each user from a learned collaborative
// vector:
//
//	(scaleᵤ, shiftᵤ) = MLP(cvᵤ)
//	Qᵤ[v] = Base[v] ⊙ (1 + scaleᵤ) + shiftᵤ
//
// The server sends each client its generated Qᵤ; the client trains a private
// pᵤ locally and uploads dQᵤ, which the server backpropagates through the
// generator into Base, the MLP, and cvᵤ. This is a FiLM-style simplification
// of Lin et al.'s meta recommender — it keeps the property Table IV measures
// (per-user generated embeddings, parameter-sized traffic slightly above
// FCF's).
type MetaMF struct {
	*federation

	base *nn.Param     // V×d shared base item embeddings
	cv   *emb.Table    // U×cvDim collaborative vectors
	cvG  *emb.RowGrads // the round's pending cv gradients
	l1   *nn.Dense     // cvDim -> hidden
	l2   *nn.Dense     // hidden -> 2d (scale ‖ shift)
	opt  *nn.Adam
}

// NewMetaMF builds the baseline for a split.
func NewMetaMF(sp *data.Split, cfg Config) (*MetaMF, error) {
	f, err := newFederation(sp, cfg, "metamf")
	if err != nil {
		return nil, err
	}
	m := &MetaMF{
		federation: f,
		base:       nn.NewParam("metamf.base", sp.NumItems, cfg.Dim),
		cv:         emb.NewTable(f.root.Derive("cv"), sp.NumUsers, cvDim, emb.DefaultAdam(cfg.LR)),
		cvG:        emb.NewRowGrads(cvDim),
		l1:         nn.NewDense("metamf.l1", cvDim, metaHidden, f.root.Derive("l1")),
		l2:         nn.NewDense("metamf.l2", metaHidden, 2*cfg.Dim, f.root.Derive("l2")),
		opt:        nn.NewAdam(cfg.LR),
	}
	nn.Normal(f.root.Derive("base"), m.base.W, 0.1)
	// Each client downloads its generated embeddings plus the modulation
	// vector and uploads the dQᵤ block.
	values := sp.NumItems * cfg.Dim
	f.clientRoundBytes = comm.Float32BlockSize(values+2*cfg.Dim) + comm.Float32BlockSize(values)
	return m, nil
}

// generate runs the meta-network for user u, returning the modulation and
// the intermediates needed for backprop.
func (m *MetaMF) generate(u int) (x, h1, a1, out *tensor.Matrix, scale, shift []float64) {
	x = tensor.FromSlice(1, cvDim, tensor.CloneVec(m.cv.Row(u)))
	h1 = m.l1.Forward(x)
	a1 = nn.ReLU(h1)
	out = m.l2.Forward(a1)
	scale = out.Row(0)[:m.cfg.Dim]
	shift = out.Row(0)[m.cfg.Dim:]
	return x, h1, a1, out, scale, shift
}

// generatedItems materialises Qᵤ — the payload the server ships to client u.
func (m *MetaMF) generatedItems(scale, shift []float64) *tensor.Matrix {
	q := tensor.New(m.split.NumItems, m.cfg.Dim)
	for v := 0; v < m.split.NumItems; v++ {
		b := m.base.W.Row(v)
		row := q.Row(v)
		for k := 0; k < m.cfg.Dim; k++ {
			row[k] = b[k]*(1+scale[k]) + shift[k]
		}
	}
	return q
}

// RunRound implements FederatedBaseline: each client receives its generated
// Qᵤ.
func (m *MetaMF) RunRound(round int) {
	m.round(round, func(u int) *tensor.Matrix {
		_, _, _, _, scale, shift := m.generate(u)
		return m.generatedItems(scale, shift)
	}, m.backprop)
}

// backprop is MetaMF's aggregation: every client's dQᵤ flows back through the
// generator into Base, the MLP and cvᵤ, then one optimizer step.
func (m *MetaMF) backprop(idx []int, grads [][]float64) {
	inv := 1.0 / float64(len(idx))
	dim := m.cfg.Dim
	for slot, u := range idx {
		dq := grads[slot]
		x, h1, a1, _, scale, _ := m.generate(u)
		dscale := make([]float64, dim)
		dshift := make([]float64, dim)
		for v := 0; v < m.split.NumItems; v++ {
			b := m.base.W.Row(v)
			bg := m.base.Grad.Row(v)
			for k := 0; k < dim; k++ {
				g := dq[v*dim+k] * inv
				if g == 0 {
					continue
				}
				bg[k] += g * (1 + scale[k])
				dscale[k] += g * b[k]
				dshift[k] += g
			}
		}
		dout := tensor.New(1, 2*dim)
		copy(dout.Row(0)[:dim], dscale)
		copy(dout.Row(0)[dim:], dshift)
		da1 := m.l2.Backward(a1, dout)
		dh1 := nn.ReLUBackward(h1, da1)
		dx := m.l1.Backward(x, dh1)
		m.cvG.Add(u, dx.Row(0))
	}
	params := []*nn.Param{m.base}
	params = append(params, m.l1.Params()...)
	params = append(params, m.l2.Params()...)
	m.opt.Step(params)
	m.cv.Step(m.cvG)
}

// Evaluate implements FederatedBaseline.
func (m *MetaMF) Evaluate() eval.Result {
	return m.rank(func(u int, items []int) []float64 {
		_, _, _, _, scale, shift := m.generate(u)
		out := make([]float64, len(items))
		p := m.users[u].w
		for i, v := range items {
			b := m.base.W.Row(v)
			var s float64
			for k := 0; k < m.cfg.Dim; k++ {
				s += p[k] * (b[k]*(1+scale[k]) + shift[k])
			}
			out[i] = nn.Sigmoid(s)
		}
		return out
	})
}
