package nn

import "ptffedrec/internal/tensor"

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
