// Package nn implements the neural-network substrate for the recommenders:
// trainable parameters, layers with hand-derived backpropagation, losses and
// optimizers. There is no autodiff — every model in internal/models derives
// its gradients analytically and the tests verify them against finite
// differences.
package nn

import (
	"math"

	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// Param is a trainable matrix with an accumulated gradient.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam allocates a rows×cols parameter with zero values and gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		W:    tensor.New(rows, cols),
		Grad: tensor.New(rows, cols),
	}
}

// Xavier fills m with the Glorot/Xavier uniform distribution
// U(±sqrt(6/(fanIn+fanOut))), the initialization used by the reference
// implementations of NeuMF/NGCF/LightGCN.
func Xavier(s *rng.Stream, m *tensor.Matrix, fanIn, fanOut int) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = s.Float64Range(-limit, limit)
	}
}

// Normal fills m with N(0, std²) values.
func Normal(s *rng.Stream, m *tensor.Matrix, std float64) {
	for i := range m.Data {
		m.Data[i] = s.Normal(0, std)
	}
}
