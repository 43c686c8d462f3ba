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

	// mod holds every user's meta-network output (scale ‖ shift) for
	// scoring while modFresh; backprop, which moves the generator, clears
	// modFresh.
	mod      *tensor.Matrix
	modFresh bool

	// passes holds, by user, the meta-network run RunRound's download made
	// for each cohort user; backprop reads it and clears it.
	passes []metaPass
}

// metaPass is what backprop reads of one user's meta-network run.
type metaPass struct {
	x, h1 *tensor.Matrix
	a1    *tensor.CSR
	scale []float64
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
		cv:         emb.NewTable(f.root.Derive("cv"), sp.NumUsers, cvDim, cfg.LR),
		cvG:        emb.NewRowGrads(cvDim),
		l1:         nn.NewDense("metamf.l1", cvDim, metaHidden, f.root.Derive("l1")),
		l2:         nn.NewDense("metamf.l2", metaHidden, 2*cfg.Dim, f.root.Derive("l2")),
	}
	nn.Normal(f.root.Derive("base"), m.base.W, 0.1)
	// Each client downloads its generated embeddings plus the modulation
	// vector and uploads the dQᵤ block.
	values := sp.NumItems * cfg.Dim
	f.clientRoundBytes = comm.Float32BlockSize(values+2*cfg.Dim) + comm.Float32BlockSize(values)
	return m, nil
}

// generate runs the meta-network for user u into new matrices — the hidden
// ReLU's output as its nonzeros, which l2 runs on — and returns the
// modulation and backprop's intermediates. RunRound's clients call it
// concurrently, so it shares no buffer; x aliases cvᵤ, which only cv.Step
// moves, after backprop's last read of x. Nothing steps cv, l1 or l2 between
// a round's download and its backprop, so backprop reuses it bitwise.
func (m *MetaMF) generate(u int) (x, h1 *tensor.Matrix, a1 *tensor.CSR, out *tensor.Matrix, scale, shift []float64) {
	x = tensor.FromSlice(1, cvDim, m.cv.Row(u))
	h1 = m.l1.ForwardInto(tensor.New(1, metaHidden), x)
	a1 = new(tensor.CSR)
	tensor.ReLUCSRInto(a1, h1)
	out = m.l2.ForwardCSRInto(tensor.New(1, 2*m.cfg.Dim), a1)
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
	if m.passes == nil {
		m.passes = make([]metaPass, m.split.NumUsers)
	}
	m.round(round, func(u int) *tensor.Matrix {
		x, h1, a1, _, scale, shift := m.generate(u)
		m.passes[u] = metaPass{x: x, h1: h1, a1: a1, scale: scale}
		return m.generatedItems(scale, shift)
	}, m.backprop)
}

// backprop is MetaMF's aggregation: every client's dQᵤ flows back through the
// generator into Base, the MLP and cvᵤ — from the meta-network run the
// client's download made, l2's dW on the ReLU's nonzeros — then one
// optimizer step.
func (m *MetaMF) backprop(idx []int, grads [][]float64) {
	inv := 1.0 / float64(len(idx))
	dim := m.cfg.Dim
	dout := tensor.New(1, 2*dim)
	dscale, dshift := dout.Row(0)[:dim], dout.Row(0)[dim:]
	da1, dx := tensor.New(1, metaHidden), tensor.New(1, cvDim)
	mask := new(tensor.CSR)
	w1G, b1G, w1T := tensor.New(cvDim, metaHidden), tensor.New(1, metaHidden), tensor.New(metaHidden, cvDim)
	w2G, b2G, w2T := tensor.New(metaHidden, 2*dim), tensor.New(1, 2*dim), tensor.New(2*dim, metaHidden)
	for slot, u := range idx {
		dq := grads[slot]
		pass := m.passes[u]
		m.passes[u] = metaPass{}
		clear(dout.Data)
		for v := 0; v < m.split.NumItems; v++ {
			b := m.base.W.Row(v)
			bg := m.base.Grad.Row(v)
			for k := 0; k < dim; k++ {
				g := dq[v*dim+k] * inv
				if g == 0 {
					continue
				}
				bg[k] += g * (1 + pass.scale[k])
				dscale[k] += g * b[k]
				dshift[k] += g
			}
		}
		pass.a1.MulTDenseInto(w2G, dout)
		tensor.SumRowsInto(b2G.Row(0), dout)
		tensor.MatMulABTInto(da1, dout, m.l2.W.W, w2T)
		tensor.ReLUMaskCSRInto(mask, pass.h1, da1)
		tensor.MatMulATBInto(w1G, pass.x, da1)
		tensor.SumRowsInto(b1G.Row(0), da1)
		tensor.MatMulABTInto(dx, da1, m.l1.W.W, w1T)
		m.l2.W.Grad.AddInPlace(w2G)
		m.l2.B.Grad.AddInPlace(b2G)
		m.l1.W.Grad.AddInPlace(w1G)
		m.l1.B.Grad.AddInPlace(b1G)
		m.cvG.Add(u, dx.Row(0))
	}
	params := []*nn.Param{m.base}
	params = append(params, m.l1.Params()...)
	params = append(params, m.l2.Params()...)
	nn.Adam(m.cfg.LR, params)
	m.cv.Step(m.cvG)
	m.modFresh = false
}

// Evaluate implements FederatedBaseline.
func (m *MetaMF) Evaluate() eval.Result { return m.rank(m) }

// WarmScoring implements models.Warmer: it runs the meta-network once per
// user into mod unless mod is fresh. The rank counter scores every user in
// several blocks (the held-out items, then each item window), and each
// block reads the modulation from mod.
func (m *MetaMF) WarmScoring() {
	if m.modFresh {
		return
	}
	if m.mod == nil {
		m.mod = tensor.New(m.split.NumUsers, 2*m.cfg.Dim)
	}
	for u := range m.split.NumUsers {
		_, _, _, out, _, _ := m.generate(u)
		copy(m.mod.Row(u), out.Row(0))
	}
	m.modFresh = true
}

// ScoreUsersBlockLogitsInto implements models.MultiBlockScorer: each user's
// private vector against the items the meta-network generates for them.
func (m *MetaMF) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users, items []int) {
	m.WarmScoring()
	dim := m.cfg.Dim
	for i, u := range users {
		mod := m.mod.Row(u)
		scale, shift := mod[:dim], mod[dim:]
		row := dst.Row(i)
		p := m.users[u].w
		for j, v := range items {
			b := m.base.W.Row(v)
			var s float64
			for k := 0; k < dim; k++ {
				s += p[k] * (b[k]*(1+scale[k]) + shift[k])
			}
			row[j] = s
		}
	}
}
