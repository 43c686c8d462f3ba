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

// Forward computes x·W + b. x is batch×In; the result is batch×Out.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	return d.ForwardInto(tensor.New(x.Rows, d.Out), x)
}

// ForwardInto computes dst = x·W + b, reusing dst's storage — the
// allocation-free forward batched scoring drives through a preallocated
// workspace. dst must be x.Rows×Out; it is returned for chaining.
func (d *Dense) ForwardInto(dst, x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense %s forward with %d inputs, want %d", d.W.Name, x.Cols, d.In))
	}
	if dst.Rows != x.Rows || dst.Cols != d.Out {
		panic(fmt.Sprintf("nn: Dense %s ForwardInto dst %dx%d for batch %d", d.W.Name, dst.Rows, dst.Cols, x.Rows))
	}
	tensor.MatMulInto(dst, x, d.W.W)
	for i := 0; i < dst.Rows; i++ {
		tensor.AddVec(d.B.W.Row(0), dst.Row(i))
	}
	return dst
}

// Backward accumulates dW = xᵀ·dy and db = Σ dy into the layer's gradients
// and returns dx = dy·Wᵀ. x must be the same batch passed to Forward.
func (d *Dense) Backward(x, dy *tensor.Matrix) *tensor.Matrix {
	d.checkBackward(x, dy)
	d.W.Grad.AddInPlace(tensor.MatMulATB(x, dy))
	brow := d.B.Grad.Row(0)
	for i := 0; i < dy.Rows; i++ {
		tensor.AddVec(dy.Row(i), brow)
	}
	return tensor.MatMulABT(dy, d.W.W)
}

// BackwardInto is the allocation-free backward a training workspace drives:
// it writes — not accumulates — dW = xᵀ·dy into wGrad (In×Out), db = Σ dy
// into bGrad (1×Out) and dx = dy·Wᵀ into dx (batch×In). wGrad and bGrad may be
// a batch shard's private matrices or, when the shard is the whole batch and
// the layer's gradients are zero (as every optimizer step leaves them), the
// layer's own Grad: a sum that starts at +0 is never −0, so adding it to zero
// would reproduce it bit for bit. wt is Out×In scratch for Wᵀ.
func (d *Dense) BackwardInto(dx, x, dy, wGrad, bGrad, wt *tensor.Matrix) {
	d.checkBackward(x, dy)
	tensor.MatMulATBInto(wGrad, x, dy)
	brow := bGrad.Row(0)
	clear(brow)
	for i := 0; i < dy.Rows; i++ {
		tensor.AddVec(dy.Row(i), brow)
	}
	tensor.MatMulABTInto(dx, dy, d.W.W, wt)
}

func (d *Dense) checkBackward(x, dy *tensor.Matrix) {
	if dy.Cols != d.Out || x.Rows != dy.Rows {
		panic(fmt.Sprintf("nn: Dense %s backward shapes x=%dx%d dy=%dx%d",
			d.W.Name, x.Rows, x.Cols, dy.Rows, dy.Cols))
	}
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
