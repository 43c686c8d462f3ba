package tensor

// This file holds the elementwise kernels the training step runs around the
// GEMM core: the Adam update every optimizer in the repository applies
// (nn.Adam and both embedding tables), ReLU forward and its backward mask,
// and the vector adds (vector.go) — plus FirstAbove, the bulk reject scan the
// logit selector runs over score runs. Each has a pure Go body below and, on
// amd64 CPUs with AVX2, an assembly body in elem_amd64.s chosen once at init
// (avx2_amd64.go) that runs four lanes at a time over the longest prefix
// whose length is a multiple of four; the Go body finishes the tail. The SpMM
// row kernel (sparse.go's spmmRows, pinned by sparse_oracle_test.go) is
// dispatched the same way and keeps the same contract.
//
// Determinism contract: both bodies compute every element with the same
// sequence of separately rounded IEEE operations — multiply and add never
// fused, and division and square root correctly rounded on every target — so
// results are bitwise-identical with and without the assembly. The references
// are the scalar loops the kernels replaced (elem_oracle_test.go).

import (
	"fmt"
	"math"
)

// Kernels installed by avx2_amd64.go's init; nil selects the pure Go bodies.
// Each processes the first n elements, n a multiple of four, without bounds
// checks.
var (
	adamKernel     func(w, m, v, g *float64, n int, c adamConsts, decayed bool)
	reluKernel     func(dst, x *float64, n int)
	reluMaskKernel func(x, dy *float64, n int)
	addVecKernel   func(x, y *float64, n int)
	axpyKernel     func(a float64, x, y *float64, n int)
	// firstAboveKernel returns FirstAbove's answer within the first n
	// elements, or n when there is none.
	firstAboveKernel func(x *float64, n int, t float64) int
	// spmmKernel computes the first cols columns of spmmRows's rows and
	// returns n, or the position of the first row whose index, entry range
	// or a column index is out of range.
	spmmKernel func(dst, x *float64, ld, xrows int, rowPtr, rows *int, n, mrows int, col *int, val *float64, nnz, cols int) int
)

// AdamBeta1, AdamBeta2 and AdamEps are Adam's standard constants (Kingma &
// Ba 2014): the moment decay rates and the denominator's guard. Every step
// in the repository uses them; the paper sets only the step size.
const (
	AdamBeta1 = 0.9
	AdamBeta2 = 0.999
	AdamEps   = 1e-8
)

// adamBiasTable holds (1 − β₁ᵗ, 1 − β₂ᵗ) for t < len(adamBiasTable). It is
// built once, with the math.Pow calls AdamBiasCorrections makes past its end,
// and only read after that.
var adamBiasTable = func() [][2]float64 {
	tab := make([][2]float64, 4096)
	for t := range tab {
		tab[t] = [2]float64{1 - math.Pow(AdamBeta1, float64(t)), 1 - math.Pow(AdamBeta2, float64(t))}
	}
	return tab
}()

// AdamBiasCorrections returns step t's bias corrections 1 − β₁ᵗ and 1 − β₂ᵗ:
// from a shared table, else from math.Pow — the same values either way.
func AdamBiasCorrections(t int) (bc1, bc2 float64) {
	if t >= 0 && t < len(adamBiasTable) {
		bc := adamBiasTable[t]
		return bc[0], bc[1]
	}
	return 1 - math.Pow(AdamBeta1, float64(t)), 1 - math.Pow(AdamBeta2, float64(t))
}

// AdamStep is the variable part of one Adam update: the step size and the
// step's bias corrections BC1 = 1 − β₁ᵗ, BC2 = 1 − β₂ᵗ.
//
// Decayed selects the form nn.Adam and LightGCN step, L2 decay at weight 0:
// it adds 0·w to the gradient before the moments update, which still turns a
// −0 gradient into +0. The embedding tables' sparse Adam never adds it, and
// the two forms are kept apart for that bit.
type AdamStep struct {
	LR       float64
	BC1, BC2 float64
	Decayed  bool
}

// NewAdamStep returns the t-th step (t counts from 1) at step size lr, in the
// decayed form or the undecayed one.
func NewAdamStep(lr float64, t int, decayed bool) AdamStep {
	bc1, bc2 := AdamBiasCorrections(t)
	return AdamStep{LR: lr, BC1: bc1, BC2: bc2, Decayed: decayed}
}

// adamConsts is one AdamUpdate call's constants. The assembly body takes it
// by value, so the constants never leave the caller's stack.
type adamConsts struct {
	beta1, oneMinusBeta1 float64
	beta2, oneMinusBeta2 float64
	bc1, bc2             float64
	lr, eps              float64
}

// AdamUpdate applies one Adam step to the weights w with moments m, v and
// gradient g, all of one length, and zeroes g. Per element, in order:
//
//	g += 0·w                          (Decayed only)
//	m  = β₁·m + (1−β₁)·g
//	v  = β₂·v + ((1−β₂)·g)·g
//	w -= (lr·(m/bc1)) / (√(v/bc2) + ε)
func AdamUpdate(w, m, v, g []float64, s *AdamStep) {
	n := len(g)
	if len(w) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("tensor: AdamUpdate lengths w=%d m=%d v=%d g=%d", len(w), len(m), len(v), n))
	}
	// 1 − β is taken from the float64 β, as a run-time subtraction would: the
	// untyped 1 − AdamBeta1 folds to the float64 nearest 0.1, two units in the
	// last place off (1 − AdamBeta2 four), and would move every step.
	c := adamConsts{
		beta1: AdamBeta1, oneMinusBeta1: 1 - float64(AdamBeta1),
		beta2: AdamBeta2, oneMinusBeta2: 1 - float64(AdamBeta2),
		bc1: s.BC1, bc2: s.BC2,
		lr: s.LR, eps: AdamEps,
	}
	i := 0
	if adamKernel != nil && n >= 4 {
		i = n &^ 3
		adamKernel(&w[0], &m[0], &v[0], &g[0], i, c, s.Decayed)
	}
	adamGo(w[i:], m[i:], v[i:], g[i:], &c, s.Decayed)
}

// adamGo is AdamUpdate's pure Go body. The float64 conversions forbid the
// compiler from fusing a multiply into the add that follows it.
func adamGo(w, m, v, g []float64, c *adamConsts, decayed bool) {
	w, m, v = w[:len(g)], m[:len(g)], v[:len(g)]
	for i, gi := range g {
		if decayed {
			gi += float64(0 * w[i])
		}
		m[i] = float64(c.beta1*m[i]) + float64(c.oneMinusBeta1*gi)
		v[i] = float64(c.beta2*v[i]) + float64(float64(c.oneMinusBeta2*gi)*gi)
		w[i] -= c.lr * (m[i] / c.bc1) / (math.Sqrt(v[i]/c.bc2) + c.eps)
		g[i] = 0
	}
}

// ReLUVec computes dst = max(0, x) element-wise: x where x > 0, else +0 — so
// −0 and NaN give +0. The slices must have equal length.
func ReLUVec(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: ReLUVec lengths dst=%d x=%d", len(dst), len(x)))
	}
	i := 0
	if reluKernel != nil && len(x) >= 4 {
		i = len(x) &^ 3
		reluKernel(&dst[0], &x[0], i)
	}
	dst = dst[i:len(x)]
	for j, v := range x[i:] {
		if v > 0 {
			dst[j] = v
		} else {
			dst[j] = 0
		}
	}
}

// ReLUBackwardVec masks the upstream gradient dy in place by the activation
// pattern of the pre-activation x: dy becomes +0 where x ≤ 0 and is kept
// elsewhere — a NaN pre-activation keeps it. The slices must have equal
// length.
func ReLUBackwardVec(x, dy []float64) {
	if len(dy) != len(x) {
		panic(fmt.Sprintf("tensor: ReLUBackwardVec lengths x=%d dy=%d", len(x), len(dy)))
	}
	i := 0
	if reluMaskKernel != nil && len(x) >= 4 {
		i = len(x) &^ 3
		reluMaskKernel(&x[0], &dy[0], i)
	}
	dy = dy[i:len(x)]
	for j, v := range x[i:] {
		if v <= 0 {
			dy[j] = 0
		}
	}
}

// FirstAbove returns the index of the first element of x that is not ≤ t —
// greater than t, or NaN, as every element is when t is NaN — or len(x) when
// there is none. It is metrics.LogitTopKSelector's bulk reject — the elements
// it skips are exactly those the selector's "logit ≤ threshold" test rejects —
// and the evaluator's jump to the next candidate that may beat a held-out
// item.
func FirstAbove(x []float64, t float64) int {
	i := 0
	if firstAboveKernel != nil && len(x) >= 4 {
		n := len(x) &^ 3
		if i = firstAboveKernel(&x[0], n, t); i < n {
			return i
		}
	}
	for ; i < len(x); i++ {
		if !(x[i] <= t) {
			return i
		}
	}
	return len(x)
}
