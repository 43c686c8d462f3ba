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
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, state: map[*Param]*adamState{}}
}

// Step applies one Adam update to every parameter and zeroes gradients.
func (o *Adam) Step(params []*Param) {
	for _, p := range params {
		st := o.stateFor(p)
		bc1, bc2 := o.advance(st)
		o.stepRange(p, st, bc1, bc2, 0, len(p.W.Data))
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
	bc1, bc2 := o.advance(st)
	cols := p.W.Cols
	for _, r := range rows {
		o.stepRange(p, st, bc1, bc2, r*cols, (r+1)*cols)
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

// advance counts one step and returns its bias corrections.
func (o *Adam) advance(st *adamState) (bc1, bc2 float64) {
	st.t++
	return 1 - math.Pow(o.Beta1, float64(st.t)), 1 - math.Pow(o.Beta2, float64(st.t))
}

// stepRange applies the Adam update to elements [lo, hi) of p and zeroes
// their gradient.
func (o *Adam) stepRange(p *Param, st *adamState, bc1, bc2 float64, lo, hi int) {
	grad, w, m, v := p.Grad.Data[lo:hi], p.W.Data[lo:hi], st.m.Data[lo:hi], st.v.Data[lo:hi]
	for i, g := range grad {
		g += o.WeightDecay * w[i]
		m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
		v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
		mHat := m[i] / bc1
		vHat := v[i] / bc2
		w[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
	}
	clear(grad)
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
