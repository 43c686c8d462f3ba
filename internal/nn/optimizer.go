package nn

import (
	"io"
	"math"

	"ptffedrec/internal/persist"
	"ptffedrec/internal/tensor"
)

// SGD is plain stochastic gradient descent with optional L2 weight decay.
type SGD struct {
	LR          float64
	WeightDecay float64
}

// Step applies p.W -= lr * (p.Grad + wd*p.W) and zeroes gradients.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		for i, g := range p.Grad.Data {
			p.W.Data[i] -= o.LR * (g + o.WeightDecay*p.W.Data[i])
		}
		p.ZeroGrad()
	}
}

// Adam implements Kingma & Ba (2014) with per-parameter moment state. The
// paper uses Adam with lr = 1e-3 for every model.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	state map[*Param]*adamState
}

type adamState struct {
	m, v *tensor.Matrix
	t    int
}

// NewAdam returns an Adam optimizer with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: tensor.AdamBeta1, Beta2: tensor.AdamBeta2, Eps: 1e-8, state: map[*Param]*adamState{}}
}

// Step applies one Adam update to every parameter and zeroes gradients.
func (o *Adam) Step(params []*Param) {
	for _, p := range params {
		st := o.stateFor(p)
		s := o.advance(st)
		stepRange(p, st, &s, 0, len(p.W.Data))
	}
}

// StepRows is Step for one parameter restricted to the listed rows: the same
// step counter and bias correction, the same per-element update, gradients
// zeroed — but only the listed rows are read or written, so the cost is
// O(len(rows)·cols). Moments stay in the dense state Step uses, so the two
// may be mixed and SnapshotState is unaffected. It equals Step bitwise
// provided every unlisted row has an all-zero gradient and all-zero moments
// (and WeightDecay is 0): such a row's update is exactly zero. Rows must not
// repeat.
func (o *Adam) StepRows(p *Param, rows []int) {
	st := o.stateFor(p)
	s := o.advance(st)
	cols := p.W.Cols
	for _, r := range rows {
		stepRange(p, st, &s, r*cols, (r+1)*cols)
	}
}

// MomentRows appends to dst, ascending, every row of p that holds a moment
// value with any bit set (a negative zero counts: a step would turn it into
// +0) — the rows StepRows must keep visiting for the moments to decay as
// under Step. A parameter that was never stepped or restored has none.
func (o *Adam) MomentRows(dst []int, p *Param) []int {
	st, ok := o.state[p]
	if !ok {
		return dst
	}
	cols := p.W.Cols
	for r := 0; r < p.W.Rows; r++ {
		for i := r * cols; i < (r+1)*cols; i++ {
			if math.Float64bits(st.m.Data[i])|math.Float64bits(st.v.Data[i]) != 0 {
				dst = append(dst, r)
				break
			}
		}
	}
	return dst
}

// stateFor returns p's moment state, creating the zero state on first use.
func (o *Adam) stateFor(p *Param) *adamState {
	st, ok := o.state[p]
	if !ok {
		st = &adamState{m: tensor.New(p.W.Rows, p.W.Cols), v: tensor.New(p.W.Rows, p.W.Cols)}
		o.state[p] = st
	}
	return st
}

// advance counts one step and returns its update. It is the decayed form
// even at WeightDecay 0, where the term still turns a −0 gradient into +0.
func (o *Adam) advance(st *adamState) tensor.AdamStep {
	st.t++
	bc1, bc2 := tensor.AdamBiasCorrections(o.Beta1, o.Beta2, st.t)
	return tensor.AdamStep{LR: o.LR, Beta1: o.Beta1, Beta2: o.Beta2, Eps: o.Eps, BC1: bc1, BC2: bc2,
		Decayed: true, WeightDecay: o.WeightDecay}
}

// stepRange applies the update s to elements [lo, hi) of p and zeroes their
// gradient.
func stepRange(p *Param, st *adamState, s *tensor.AdamStep, lo, hi int) {
	tensor.AdamUpdate(p.W.Data[lo:hi], st.m.Data[lo:hi], st.v.Data[lo:hi], p.Grad.Data[lo:hi], s)
}

// SnapshotState writes the optimizer's moment estimates for params, in the
// given order — the caller's canonical parameter order versions the layout.
// Parameters that have never been stepped serialise as a zero state, which is
// exactly the state Step would lazily create for them.
func (o *Adam) SnapshotState(w io.Writer, params []*Param) error {
	for _, p := range params {
		st, ok := o.state[p]
		if !ok {
			st = &adamState{m: tensor.New(p.W.Rows, p.W.Cols), v: tensor.New(p.W.Rows, p.W.Cols)}
		}
		if err := persist.WriteUint64(w, uint64(st.t)); err != nil {
			return err
		}
		if err := persist.WriteFloat64s(w, st.m.Data); err != nil {
			return err
		}
		if err := persist.WriteFloat64s(w, st.v.Data); err != nil {
			return err
		}
	}
	return nil
}

// RestoreState reads moment estimates previously written by SnapshotState
// with the same parameter order, so a restored model's next Step continues
// the bias-corrected moment sequence exactly.
func (o *Adam) RestoreState(r io.Reader, params []*Param) error {
	for _, p := range params {
		st := o.stateFor(p)
		t, err := persist.ReadUint64(r)
		if err != nil {
			return err
		}
		st.t = int(t)
		if err := persist.ReadFloat64sInto(r, st.m.Data); err != nil {
			return err
		}
		if err := persist.ReadFloat64sInto(r, st.v.Data); err != nil {
			return err
		}
	}
	return nil
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. Stabilises the early rounds of the
// graph models on sparse uploads.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}
