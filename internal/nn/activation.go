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

// ReLUInto computes dst = max(0, x) element-wise, reusing dst's storage: x
// where x > 0, else +0 (so −0 and NaN give +0).
func ReLUInto(dst, x *tensor.Matrix) *tensor.Matrix {
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("nn: ReLUInto dst %dx%d for %dx%d", dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	tensor.ReLUVec(dst.Data, x.Data)
	return dst
}

// ReLUBackwardInPlace masks the upstream gradient dy by the activation
// pattern of the pre-activation input x, overwriting dy with
// dx = dy ⊙ 1[x > 0]. A NaN pre-activation keeps its dy; every masked element
// becomes +0.
func ReLUBackwardInPlace(x, dy *tensor.Matrix) {
	if dy.Rows != x.Rows || dy.Cols != x.Cols {
		panic(fmt.Sprintf("nn: ReLUBackwardInPlace dy %dx%d for %dx%d", dy.Rows, dy.Cols, x.Rows, x.Cols))
	}
	tensor.ReLUBackwardVec(x.Data, dy.Data)
}

// LeakyReLUInto computes dst = max(αx, x) element-wise, reusing dst's
// storage: x where x > 0, else αx (NGCF uses α = 0.2). dst may be x.
func LeakyReLUInto(dst, x *tensor.Matrix, alpha float64) *tensor.Matrix {
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("nn: LeakyReLUInto dst %dx%d for %dx%d", dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	for i, v := range x.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = alpha * v
		}
	}
	return dst
}

// LeakyReLUBackwardInPlace overwrites the upstream gradient dy with
// dx = dy ⊙ LeakyReLU'(x): dy where x > 0, else α·dy.
func LeakyReLUBackwardInPlace(x, dy *tensor.Matrix, alpha float64) {
	if dy.Rows != x.Rows || dy.Cols != x.Cols {
		panic(fmt.Sprintf("nn: LeakyReLUBackwardInPlace dy %dx%d for %dx%d", dy.Rows, dy.Cols, x.Rows, x.Cols))
	}
	for i, v := range x.Data {
		if v <= 0 {
			dy.Data[i] *= alpha
		}
	}
}
