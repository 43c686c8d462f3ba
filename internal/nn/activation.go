package nn

import (
	"fmt"
	"math"

	"ptffedrec/internal/tensor"
)

// Sigmoid returns σ(x) computed in a numerically stable way.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// ReLU applies max(0, x) element-wise, returning a new matrix.
func ReLU(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	ReLUInto(out, x)
	return out
}

// ReLUInto computes dst = max(0, x) element-wise, reusing dst's storage.
func ReLUInto(dst, x *tensor.Matrix) *tensor.Matrix {
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("nn: ReLUInto dst %dx%d for %dx%d", dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	for i, v := range x.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
	return dst
}

// ReLUBackward masks the upstream gradient dy by the activation pattern of
// the pre-activation input x: dx = dy ⊙ 1[x > 0].
func ReLUBackward(x, dy *tensor.Matrix) *tensor.Matrix {
	out := dy.Clone()
	ReLUBackwardInPlace(x, out)
	return out
}

// ReLUBackwardInPlace is ReLUBackward overwriting dy with dx.
func ReLUBackwardInPlace(x, dy *tensor.Matrix) {
	if dy.Rows != x.Rows || dy.Cols != x.Cols {
		panic(fmt.Sprintf("nn: ReLUBackwardInPlace dy %dx%d for %dx%d", dy.Rows, dy.Cols, x.Rows, x.Cols))
	}
	for i, v := range x.Data {
		if v <= 0 {
			dy.Data[i] = 0
		}
	}
}

// LeakyReLU applies max(αx, x) element-wise (NGCF uses α = 0.2).
func LeakyReLU(x *tensor.Matrix, alpha float64) *tensor.Matrix {
	out := x.Clone()
	out.Apply(func(v float64) float64 {
		if v > 0 {
			return v
		}
		return alpha * v
	})
	return out
}

// LeakyReLUBackward computes dx = dy ⊙ LeakyReLU'(x).
func LeakyReLUBackward(x, dy *tensor.Matrix, alpha float64) *tensor.Matrix {
	out := dy.Clone()
	for i, v := range x.Data {
		if v <= 0 {
			out.Data[i] *= alpha
		}
	}
	return out
}

// Tanh applies tanh element-wise, returning a new matrix.
func Tanh(x *tensor.Matrix) *tensor.Matrix {
	out := x.Clone()
	out.Apply(math.Tanh)
	return out
}

// TanhBackward computes dx = dy ⊙ (1 − tanh(x)²) given the activation output
// y = tanh(x).
func TanhBackward(y, dy *tensor.Matrix) *tensor.Matrix {
	out := dy.Clone()
	for i, v := range y.Data {
		out.Data[i] *= 1 - v*v
	}
	return out
}
