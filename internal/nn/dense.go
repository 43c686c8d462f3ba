package nn

import (
	"fmt"

	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// Dense is a fully connected layer computing y = x·W + b for a batch of row
// vectors x.
type Dense struct {
	In, Out int
	W       *Param // In×Out
	B       *Param // 1×Out
}

// NewDense returns a Dense layer with Xavier-initialized weights and zero
// bias.
func NewDense(name string, in, out int, s *rng.Stream) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam(name+".W", in, out),
		B:   NewParam(name+".b", 1, out),
	}
	Xavier(s, d.W.W, in, out)
	return d
}

// ForwardInto computes dst = x·W + b for a batch x (batch×In), reusing dst's
// storage. dst must be x.Rows×Out; it is returned for chaining.
func (d *Dense) ForwardInto(dst, x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense %s forward with %d inputs, want %d", d.W.Name, x.Cols, d.In))
	}
	if dst.Rows != x.Rows || dst.Cols != d.Out {
		panic(fmt.Sprintf("nn: Dense %s ForwardInto dst %dx%d for batch %d", d.W.Name, dst.Rows, dst.Cols, x.Rows))
	}
	tensor.MatMulInto(dst, x, d.W.W)
	tensor.AddToRows(dst, d.B.W.Row(0))
	return dst
}

// ForwardCSRInto is ForwardInto for a batch held as CSR — a ReLU output's
// nonzeros (tensor.ReLUCSRInto) — so each sum runs over a row's stored
// entries alone: dst = a·W + b. For finite W it gives ForwardInto's bits on
// a's dense form, whose zeros contribute only ±0 to a sum from +0.
func (d *Dense) ForwardCSRInto(dst *tensor.Matrix, a *tensor.CSR) *tensor.Matrix {
	if a.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense %s forward with %d inputs, want %d", d.W.Name, a.Cols, d.In))
	}
	if dst.Rows != a.Rows || dst.Cols != d.Out {
		panic(fmt.Sprintf("nn: Dense %s ForwardCSRInto dst %dx%d for batch %d", d.W.Name, dst.Rows, dst.Cols, a.Rows))
	}
	a.MulDenseInto(dst, d.W.W)
	tensor.AddToRows(dst, d.B.W.Row(0))
	return dst
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
