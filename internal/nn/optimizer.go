package nn

import (
	"io"

	"ptffedrec/internal/persist"
	"ptffedrec/internal/tensor"
)

// Adam applies one Adam step (Kingma & Ba 2014) at step size lr to every
// parameter and zeroes the gradients — the paper uses lr = 1e-3 for every
// model. It is the decayed form at weight decay 0, where the term 0·w still
// turns a −0 gradient into +0.
func Adam(lr float64, params []*Param) {
	for _, p := range params {
		p.T++
		s := tensor.NewAdamStep(lr, p.T, true)
		tensor.AdamUpdate(p.W.Data, p.M.Data, p.V.Data, p.Grad.Data, &s)
	}
}

// SnapshotMoments writes each parameter's step count and moments, in the
// given order — the caller's canonical parameter order versions the layout.
func SnapshotMoments(w io.Writer, params []*Param) error {
	for _, p := range params {
		if err := persist.WriteUint64(w, uint64(p.T)); err != nil {
			return err
		}
		if err := persist.WriteFloat64s(w, p.M.Data); err != nil {
			return err
		}
		if err := persist.WriteFloat64s(w, p.V.Data); err != nil {
			return err
		}
	}
	return nil
}

// RestoreMoments reads what SnapshotMoments wrote for the same parameter
// order, so a restored model's next step continues the bias-corrected moment
// sequence exactly.
func RestoreMoments(r io.Reader, params []*Param) error {
	for _, p := range params {
		t, err := persist.ReadUint64(r)
		if err != nil {
			return err
		}
		p.T = int(t)
		if err := persist.ReadFloat64sInto(r, p.M.Data); err != nil {
			return err
		}
		if err := persist.ReadFloat64sInto(r, p.V.Data); err != nil {
			return err
		}
	}
	return nil
}
