package baselines

import (
	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// FCF is federated collaborative filtering: the server owns the public item
// embedding matrix Q; each client owns a private user vector pᵤ. Every round
// the server broadcasts Q, clients train locally and upload dense item
// gradients, and the server applies the averaged gradient with Adam.
type FCF struct {
	*sharedItems
	q *nn.Param // the item matrix as an optimizer parameter
}

// NewFCF builds the baseline for a split.
func NewFCF(sp *data.Split, cfg Config) (*FCF, error) {
	s, err := newSharedItems(sp, cfg, "fcf")
	if err != nil {
		return nil, err
	}
	f := &FCF{
		sharedItems: s,
		q: &nn.Param{Name: "fcf.Q", W: s.items, Grad: tensor.New(sp.NumItems, cfg.Dim),
			M: tensor.New(sp.NumItems, cfg.Dim), V: tensor.New(sp.NumItems, cfg.Dim)},
	}
	// The payload is the full float32 item matrix, exactly what the original
	// FCF ships in each direction.
	s.clientRoundBytes = 2 * comm.Float32BlockSize(sp.NumItems*cfg.Dim)
	s.aggregate = f.fedAvg
	return f, nil
}

// fedAvg is FCF's aggregation: the mean gradient over participants, then a
// server Adam step.
func (f *FCF) fedAvg(_ []int, grads [][]float64) {
	inv := 1.0 / float64(len(grads))
	for _, g := range grads {
		for j, v := range g {
			f.q.Grad.Data[j] += v * inv
		}
	}
	nn.Adam(f.cfg.LR, []*nn.Param{f.q})
}
