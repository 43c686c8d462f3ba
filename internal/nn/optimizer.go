package nn

import (
	"io"

	"ptffedrec/internal/persist"
	"ptffedrec/internal/tensor"
)

// Adam implements Kingma & Ba (2014) with per-parameter moment state. The
// paper uses Adam with lr = 1e-3 for every model.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

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
		st.t++
		s := o.Update(st.t)
		tensor.AdamUpdate(p.W.Data, st.m.Data, st.v.Data, p.Grad.Data, &s)
	}
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

// Update returns the update Step applies to a parameter at its t-th step
// (t counts from 1), for a caller that keeps its own moments and step
// counter. It is the decayed form at weight decay 0, where the term 0·w still
// turns a −0 gradient into +0.
func (o *Adam) Update(t int) tensor.AdamStep {
	bc1, bc2 := tensor.AdamBiasCorrections(o.Beta1, o.Beta2, t)
	return tensor.AdamStep{LR: o.LR, Beta1: o.Beta1, Beta2: o.Beta2, Eps: o.Eps, BC1: bc1, BC2: bc2,
		Decayed: true}
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
