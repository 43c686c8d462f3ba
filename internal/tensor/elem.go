package tensor

// This file holds the elementwise kernels the training step runs around the
// GEMM core: the Adam update every optimizer in the repository applies
// (nn.Adam and both embedding tables) and the vector adds (vector.go) — plus
// FirstAbove, the bulk reject scan the logit selector runs over score runs.
// Each has a pure Go body below and, on amd64 CPUs with AVX2, an assembly
// body in elem_amd64.s chosen once at init (avx2_amd64.go) that runs four
// lanes at a time over the longest prefix whose length is a multiple of
// four; the Go body finishes the tail. Where the 8×8 AVX-512 tile is
// installed, Adam runs an AVX-512 body instead, eight lanes at a time over
// every element. The sparse kernels (sparse.go, pinned by
// sparse_oracle_test.go) are dispatched the same way and keep the same
// contract; among them are ReLU's forward and backward mask, which have no
// dense form and write their results as CSR (ReLUCSRInto, ReLUMaskCSRInto).
//
// Determinism contract: every body computes every element with the same
// sequence of separately rounded IEEE operations — multiply and add never
// fused, and division and square root correctly rounded on every target — so
// results are bitwise-identical with and without the assembly. The one value
// computed another way, the AVX-512 Adam body's two bias-corrected moments,
// is proved equal to the correctly rounded quotient lane by lane, and a
// vector with a lane it cannot prove divides (AdamUpdate). The references
// are the scalar loops the kernels replaced (elem_oracle_test.go).

import (
	"fmt"
	"math"
)

// Kernels installed by avx2_amd64.go's init; nil selects the pure Go bodies.
// Each processes the first n elements, n a multiple of four, without bounds
// checks.
var (
	adamKernel   func(w, m, v, g *float64, n int, c adamConsts, decayed bool)
	addVecKernel func(x, y *float64, n int)
	axpyKernel   func(a float64, x, y *float64, n int)
	// firstAboveKernel returns FirstAbove's answer within the first n
	// elements, or n when there is none.
	firstAboveKernel func(x *float64, n int, t float64) int
)

// adamWide is set by the same init, with the 8×8 tile, when AdamUpdate runs
// adamAVX512, the AVX-512 body, over every element (the last n mod 8 under
// an opmask). It is a flag and a direct call, not a kernel variable, so the
// step AdamUpdate is handed stays on its caller's stack.
var adamWide bool

// AdamBeta1, AdamBeta2 and AdamEps are Adam's standard constants (Kingma &
// Ba 2014): the moment decay rates and the denominator's guard. Every step
// in the repository uses them; the paper sets only the step size.
const (
	AdamBeta1 = 0.9
	AdamBeta2 = 0.999
	AdamEps   = 1e-8
)

// adamFixed holds the constants every Adam step shares; AdamUpdate adds a
// step's own, and the AVX-512 body reads them from here. 1 − β is taken from
// the float64 β, as a run-time subtraction would: the untyped 1 − AdamBeta1
// folds to the float64 nearest 0.1, two units in the last place off
// (1 − AdamBeta2 four), and would move every step.
var adamFixed = adamConsts{
	beta1: AdamBeta1, oneMinusBeta1: 1 - float64(AdamBeta1),
	beta2: AdamBeta2, oneMinusBeta2: 1 - float64(AdamBeta2),
	eps: AdamEps,
}

// adamBias is step t's bias corrections bc1 = 1 − β₁ᵗ, bc2 = 1 − β₂ᵗ and,
// for each, the two constants the AVX-512 body divides by it with: its
// rounded reciprocal y = RN(1/bc) and bh = proofScale(bc).
type adamBias struct {
	bc1, bc2 float64
	y1, y2   float64
	bh1, bh2 float64
}

func newAdamBias(t int) adamBias {
	bc1, bc2 := 1-math.Pow(AdamBeta1, float64(t)), 1-math.Pow(AdamBeta2, float64(t))
	return adamBias{bc1: bc1, bc2: bc2, y1: 1 / bc1, y2: 1 / bc2, bh1: proofScale(bc1), bh2: proofScale(bc2)}
}

// proofScale returns bc·2⁻⁵³, exact, for a divisor in [2⁻⁶⁰, 1], the AVX-512
// Adam body's proof domain, which every bias correction at t ≥ 1 lies in.
// Elsewhere (bc ≤ 0 at t ≤ 0) it returns 0, and the body proves no lane —
// not even a ±0 one, as 0/0 is NaN — so every quotient takes the divider.
func proofScale(bc float64) float64 {
	if bc >= 0x1p-60 && bc <= 1 {
		return bc * 0x1p-53
	}
	return 0
}

// adamBiasTable holds newAdamBias(t) for t < len(adamBiasTable). It is built
// once, and only read after that; NewAdamStep computes a later step's the
// same way.
var adamBiasTable = func() []adamBias {
	tab := make([]adamBias, 4096)
	for t := range tab {
		tab[t] = newAdamBias(t)
	}
	return tab
}()

// AdamStep is the variable part of one Adam update: the step size, the form
// and the step's bias corrections. Only NewAdamStep builds one, so its
// corrections and their quotient constants always belong together.
//
// The decayed form is the one nn.Adam and LightGCN step, L2 decay at weight
// 0: it adds 0·w to the gradient before the moments update, which still
// turns a −0 gradient into +0. The embedding tables' sparse Adam never adds
// it, and the two forms are kept apart for that bit.
type AdamStep struct {
	lr      float64
	decayed bool
	bias    adamBias
}

// NewAdamStep returns the t-th step (t counts from 1) at step size lr, in the
// decayed form or the undecayed one.
func NewAdamStep(lr float64, t int, decayed bool) AdamStep {
	s := AdamStep{lr: lr, decayed: decayed}
	if t >= 0 && t < len(adamBiasTable) {
		s.bias = adamBiasTable[t]
	} else {
		s.bias = newAdamBias(t)
	}
	return s
}

// adamConsts is the constants of one AdamUpdate call on the AVX2 or the Go
// body. The AVX2 body takes it by value, so the constants never leave the
// caller's stack.
type adamConsts struct {
	beta1, oneMinusBeta1 float64
	beta2, oneMinusBeta2 float64
	bc1, bc2             float64
	lr, eps              float64
}

// AdamUpdate applies one Adam step to the weights w with moments m, v and
// gradient g, all of one length, and zeroes g. Per element, in order:
//
//	g += 0·w                          (decayed form only)
//	m  = β₁·m + (1−β₁)·g
//	v  = β₂·v + ((1−β₂)·g)·g
//	w -= (lr·(m/bc1)) / (√(v/bc2) + ε)
//
// Every body gives the same bits. The AVX2 body runs the scalar sequence
// four lanes at a time, and the Go body the tail. The AVX-512 body runs
// every element, eight lanes at a time, and computes the two quotients by a
// per-step constant, a = m or v over b = bc1 or bc2, off the divider: from
// y = RN(1/b) it takes q₀ = RN(a·y), r = RN(a − b·q₀) and q = RN(q₀ + r·y),
// the last two by FMA. For b in [2⁻⁶⁰, 1] (proofScale), a lane is proved to
// hold RN(a/b) when a = ±0 (the lane then takes a itself: for a = −0, q is
// +0), or when |q| > 2⁻⁹⁰⁰ and |RN(a − b·q)| < T = E·bh, with
// E = 2^⌊log₂ pred(|q|)⌋ read from the exponent bits of |q|'s pattern minus
// one and bh = b·2⁻⁵³. T is exact and RN monotone, so |a/b − q| < E·2⁻⁵³,
// at most half the gap from q to either neighbour (E is a binade lower at a
// power of two, where the gap below halves): q is the quotient the divider
// returns. NaN, ±Inf, and the subnormal or tiny values fail an ordered
// compare. A vector with any unproved lane computes both quotients on the
// divider; the per-element (lr·m̂)/(√v̂ + ε) and the square root always do.
func AdamUpdate(w, m, v, g []float64, s *AdamStep) {
	n := len(g)
	if len(w) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("tensor: AdamUpdate lengths w=%d m=%d v=%d g=%d", len(w), len(m), len(v), n))
	}
	if adamWide && n > 0 {
		adamAVX512(&w[0], &m[0], &v[0], &g[0], n, s)
		return
	}
	c := adamFixed
	c.bc1, c.bc2, c.lr = s.bias.bc1, s.bias.bc2, s.lr
	i := 0
	if adamKernel != nil && n >= 4 {
		i = n &^ 3
		adamKernel(&w[0], &m[0], &v[0], &g[0], i, c, s.decayed)
	}
	adamGo(w[i:], m[i:], v[i:], g[i:], &c, s.decayed)
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
