package tensor

// The scalar loops the elementwise kernels (elem.go) replaced, kept verbatim
// as their references — nn.Adam's step, the embedding tables' sparse Adam
// step and the vector adds — and the tests that pin every kernel, with its
// assembly body and with the pure Go one, to them bit for bit. The dense
// ReLU forward and backward loops are kept too, as the reference of
// sparse.go's ReLU compressions (sparse_oracle_test.go).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// adamOracleHyper carries the fields the verbatim Adam loops read.
type adamOracleHyper struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64
}

// standardAdamOracle is the loops' setting at step size lr: the β pair, ε
// and zero weight decay every caller gave them. The fields are variables, so
// the loops compute 1 − β at run time, as they always did.
func standardAdamOracle(lr float64) adamOracleHyper {
	return adamOracleHyper{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// adamStepRangeOracle is nn.Adam.stepRange's loop.
func adamStepRangeOracle(o *adamOracleHyper, grad, w, m, v []float64, bc1, bc2 float64) {
	for i, g := range grad {
		g += o.WeightDecay * w[i]
		m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
		v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
		mHat := m[i] / bc1
		vHat := v[i] / bc2
		w[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
	}
	clear(grad)
}

type lazyRowOracle struct {
	w, m, v, grad []float64
}

// lazyTableStepOracle is emb.LazyTable.Step's per-row loop (emb.Table.Step's
// is the same without the gradient reset: it deleted the buffer instead).
func lazyTableStepOracle(hy adamOracleHyper, r *lazyRowOracle, bc1, bc2 float64) {
	for k, gk := range r.grad {
		r.m[k] = hy.Beta1*r.m[k] + (1-hy.Beta1)*gk
		r.v[k] = hy.Beta2*r.v[k] + (1-hy.Beta2)*gk*gk
		r.w[k] -= hy.LR * (r.m[k] / bc1) / (math.Sqrt(r.v[k]/bc2) + hy.Eps)
		r.grad[k] = 0
	}
}

// adamBiasOracle is the bias correction every Adam step computed.
func adamBiasOracle(beta1, beta2 float64, st int) (bc1, bc2 float64) {
	return 1 - math.Pow(beta1, float64(st)), 1 - math.Pow(beta2, float64(st))
}

// reluIntoOracle is the dense ReLU forward: max(0, x), x where x > 0, else
// +0 (−0 and NaN included).
func reluIntoOracle(dst, x []float64) {
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// reluBackwardOracle is the dense ReLU backward: dy becomes +0 where x ≤ 0
// and is kept elsewhere, a NaN x included.
func reluBackwardOracle(x, dy []float64) {
	for i, v := range x {
		if v <= 0 {
			dy[i] = 0
		}
	}
}

// axpyOracle is Axpy's loop (models' rowAccum.axpy ran the same one).
func axpyOracle(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

// firstAboveOracle is the reject test metrics.LogitTopKSelector.Push applies
// per element, run until it first fails.
func firstAboveOracle(x []float64, t float64) int {
	for i, v := range x {
		if !(v <= t) {
			return i
		}
	}
	return len(x)
}

// addVecOracle is AddVec's loop (models' rowAccum.add ran the same one).
func addVecOracle(x, y []float64) {
	for i, v := range x {
		y[i] += v
	}
}

// elemInf lives in a variable so the compiler cannot fold defaultNaN.
var elemInf = math.Inf(1)

// defaultNaN returns the NaN this CPU produces for an invalid operation. The
// adversarial inputs use it — not math.NaN(), whose payload differs — so that
// every NaN a kernel can meet, given or produced, is one bit pattern: which
// of two different NaNs an add propagates depends on the operand order the
// compiler picks for the scalar loop, which Go leaves unspecified.
func defaultNaN() float64 { return elemInf - elemInf }

// elemSpecials are the values the kernels must treat exactly as the scalar
// loops do: signed zeros, NaN, infinities, subnormals and the extremes.
func elemSpecials() []float64 {
	return []float64{
		0, math.Copysign(0, -1), defaultNaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022 - 0x1p-1074, -(0x1p-1022 - 0x1p-1074), 0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
}

// elemOperand draws n values: about a third from elemSpecials, the rest
// normal draws of mixed magnitude.
func elemOperand(r *rand.Rand, n int) []float64 {
	sp := elemSpecials()
	out := make([]float64, n)
	for i := range out {
		if r.Intn(3) == 0 {
			out[i] = sp[r.Intn(len(sp))]
		} else {
			out[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4))
		}
	}
	return out
}

func requireSameFloats(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		if math.Float64bits(w) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

// withGoBodies runs f with every elementwise kernel and every sparse kernel
// forced to their pure Go bodies, the way gemm_oracle_test.go forces the Go
// tile.
func withGoBodies(f func()) {
	adam, add, axpy, above := adamKernel, addVecKernel, axpyKernel, firstAboveKernel
	spmm, spmmT, reluCSR, maskCSR, transpose := spmmKernel, spmmTKernel, reluCSRKernel, reluMaskCSRKernel, transposeKernel
	adamKernel, addVecKernel, axpyKernel, firstAboveKernel = nil, nil, nil, nil
	spmmKernel, spmmTKernel, reluCSRKernel, reluMaskCSRKernel, transposeKernel = nil, nil, nil, nil, nil
	defer func() {
		adamKernel, addVecKernel, axpyKernel, firstAboveKernel = adam, add, axpy, above
		spmmKernel, spmmTKernel, reluCSRKernel, reluMaskCSRKernel, transposeKernel = spmm, spmmT, reluCSR, maskCSR, transpose
	}()
	withoutZMM(f)
}

// withoutZMM runs f with the AVX-512 sparse kernels and Adam body
// uninstalled, so those entry points run their AVX2 bodies.
func withoutZMM(f func()) {
	wide, wideT, relu, mask, adam := spmmWideKernel, spmmTWideKernel, reluCSRWideKernel, reluMaskCSRWideKernel, adamWide
	spmmWideKernel, spmmTWideKernel, reluCSRWideKernel, reluMaskCSRWideKernel, adamWide = nil, nil, nil, nil, false
	defer func() {
		spmmWideKernel, spmmTWideKernel, reluCSRWideKernel, reluMaskCSRWideKernel, adamWide = wide, wideT, relu, mask, adam
	}()
	f()
}

// requireKernelMatchesOracle runs one kernel case: run(false) computes the
// outputs through the verbatim scalar loop, run(true) through the kernel
// entry point — once as dispatched and once more on every other body the
// host has: the AVX2 bodies (withoutZMM) where AVX-512 ones are installed,
// and the pure Go bodies where assembly is. Every output must carry the
// oracle's bits. On a target whose compiler fuses the oracle's own
// multiply-adds only the comparisons against the dispatched body run.
func requireKernelMatchesOracle(t *testing.T, label string, run func(kernel bool) [][]float64) {
	t.Helper()
	got := run(true)
	if !compilerFusesMulAdd() {
		for i, want := range run(false) {
			requireSameFloats(t, fmt.Sprintf("%s output %d", label, i), want, got[i])
		}
	}
	type body struct {
		name string
		with func(func())
	}
	var others []body
	if adamWide {
		others = append(others, body{"AVX2", withoutZMM})
	}
	if adamKernel != nil {
		others = append(others, body{"Go", withGoBodies})
	}
	for _, b := range others {
		var out [][]float64
		b.with(func() { out = run(true) })
		for i, want := range got {
			requireSameFloats(t, fmt.Sprintf("%s output %d (%s body vs dispatched)", label, i, b.name), want, out[i])
		}
	}
}

// adamCase is one AdamUpdate input: the step size, the form, the step whose
// bias corrections apply, and the four vectors.
type adamCase struct {
	lr         float64
	decayed    bool
	st         int
	w, m, v, g []float64
}

func (c adamCase) run(kernel bool) [][]float64 {
	w, m, v, g := slices.Clone(c.w), slices.Clone(c.m), slices.Clone(c.v), slices.Clone(c.g)
	hy := standardAdamOracle(c.lr)
	bc1, bc2 := adamBiasOracle(hy.Beta1, hy.Beta2, c.st)
	switch {
	case kernel:
		s := NewAdamStep(c.lr, c.st, c.decayed)
		AdamUpdate(w, m, v, g, &s)
	case c.decayed:
		adamStepRangeOracle(&hy, g, w, m, v, bc1, bc2)
	default:
		lazyTableStepOracle(hy, &lazyRowOracle{w: w, m: m, v: v, grad: g}, bc1, bc2)
	}
	return [][]float64{w, m, v, g}
}

// adamHypers are the forms and steps the Adam pin sweeps: nn.Adam's decayed
// form and the tables' form, at step 0 (bias corrections 0, outside the
// AVX-512 body's proof domain), at steps inside the bias-correction table
// and past its end.
var adamHypers = []struct {
	lr      float64
	decayed bool
	st      int
}{
	{1e-3, true, 0},
	{1e-3, false, 0},
	{1e-3, true, 1},
	{1e-3, false, 1},
	{0.01, true, 37},
	{0.01, false, 250},
	{0.05, true, 5000},
	{0.05, false, 5000},
}

// adamRegimes are the states an eight-lane block of Adam operands is drawn
// in, each returning one lane's (w, m, v, g): live moments (every operand
// finite and normal, where the AVX-512 body proves its quotients), the mixed
// operands of elemOperand, subnormal moments under ±0 or subnormal
// gradients (the state idle rows decay into over a long run), ±0 moments
// and gradients, lanes of that state and live ones mixed, and moments that
// are ±Inf or NaN.
var adamRegimes = []func(r *rand.Rand) (w, m, v, g float64){
	adamLive,
	func(r *rand.Rand) (w, m, v, g float64) {
		x := elemOperand(r, 4)
		return x[0], x[1], x[2], x[3]
	},
	func(r *rand.Rand) (w, m, v, g float64) {
		sub := func() float64 { return float64(1+r.Int63n(1<<52-1)) * 0x1p-1074 }
		g = math.Copysign(0, r.NormFloat64())
		if r.Intn(2) == 0 {
			g = math.Copysign(sub(), g)
		}
		return r.NormFloat64(), math.Copysign(sub(), r.NormFloat64()), sub(), g
	},
	adamZero,
	func(r *rand.Rand) (w, m, v, g float64) {
		if r.Intn(2) == 0 {
			return adamZero(r)
		}
		return adamLive(r)
	},
	func(r *rand.Rand) (w, m, v, g float64) {
		special := []float64{math.Inf(1), math.Inf(-1), defaultNaN(), r.NormFloat64()}
		return r.NormFloat64(), special[r.Intn(4)], special[r.Intn(4)], r.NormFloat64()
	},
}

func adamLive(r *rand.Rand) (w, m, v, g float64) {
	s := math.Pow(10, float64(r.Intn(9)-6))
	return r.NormFloat64(), r.NormFloat64() * s, math.Abs(r.NormFloat64()) * s * s, r.NormFloat64() * s
}

func adamZero(r *rand.Rand) (w, m, v, g float64) {
	zero := func() float64 { return math.Copysign(0, r.NormFloat64()) }
	return r.NormFloat64(), zero(), zero(), zero()
}

// adamOperands draws n lanes of Adam operands, eight-lane block i in regime
// (i + rot) mod len(adamRegimes), so any n ≥ 48 meets every regime.
func adamOperands(r *rand.Rand, n, rot int) (w, m, v, g []float64) {
	w, m, v, g = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range n {
		w[i], m[i], v[i], g[i] = adamRegimes[(i/8+rot)%len(adamRegimes)](r)
	}
	return w, m, v, g
}

// TestElemKernelsMatchOracle sweeps every kernel over lengths 0–67, so the
// four- and eight-lane bodies and every tail length run, on adversarial
// operands, and Adam also on blocks of every regime in adamRegimes.
func TestElemKernelsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 67; n++ {
		for hi, h := range adamHypers {
			c := adamCase{lr: h.lr, decayed: h.decayed, st: h.st,
				w: elemOperand(r, n), m: elemOperand(r, n), v: elemOperand(r, n), g: elemOperand(r, n)}
			requireKernelMatchesOracle(t, fmt.Sprintf("Adam n=%d hyper %d", n, hi), c.run)
			regimes := c
			regimes.w, regimes.m, regimes.v, regimes.g = adamOperands(r, n, hi)
			requireKernelMatchesOracle(t, fmt.Sprintf("Adam n=%d hyper %d, regime blocks", n, hi), regimes.run)
			// Zero moments and a −0 gradient, where the two forms part: the
			// decay term turns the −0 into +0, and a −0 moment plus a +0 term
			// is +0 where plus a −0 one it stays −0.
			for _, zero := range []float64{0, math.Copysign(0, -1)} {
				c.m, c.v = slices.Repeat([]float64{zero}, n), slices.Repeat([]float64{zero}, n)
				c.g = slices.Repeat([]float64{math.Copysign(0, -1)}, n)
				requireKernelMatchesOracle(t, fmt.Sprintf("Adam n=%d hyper %d, moments %v, −0 gradient", n, hi, zero), c.run)
			}
		}
		x, y, a := elemOperand(r, n), elemOperand(r, n), elemOperand(r, 1)[0]
		requireKernelMatchesOracle(t, fmt.Sprintf("AddVec n=%d", n), func(kernel bool) [][]float64 {
			dst := slices.Clone(y)
			if kernel {
				AddVec(x, dst)
			} else {
				addVecOracle(x, dst)
			}
			return [][]float64{dst}
		})
		requireKernelMatchesOracle(t, fmt.Sprintf("Axpy n=%d a=%v", n, a), func(kernel bool) [][]float64 {
			dst := slices.Clone(y)
			if kernel {
				Axpy(a, x, dst)
			} else {
				axpyOracle(a, x, dst)
			}
			return [][]float64{dst}
		})
	}
}

// TestFirstAboveMatchesOracle pins FirstAbove, as dispatched and on the pure
// Go body, to the scalar reject loop: at lengths 0–9 (every four- and
// eight-lane split) and 255–257, for finite, signed-zero, infinite and NaN
// thresholds, with a stopper — a NaN, or the next value above the threshold —
// at every position behind ties and lesser values, and with none at all.
func TestFirstAboveMatchesOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var lengths []int
	for n := 0; n <= 9; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 257)
	for _, th := range []float64{1.5, 0, negZero, math.Inf(1), math.Inf(-1), defaultNaN()} {
		// Values ≤ th, ties first; the −0/+0 pair ties at either signed zero.
		fill := []float64{th, math.Nextafter(th, math.Inf(-1)), math.Inf(-1), 0, negZero}
		for _, stop := range []float64{defaultNaN(), math.Nextafter(th, math.Inf(1))} {
			for _, n := range lengths {
				for p := 0; p <= n; p++ {
					x := make([]float64, n)
					for i := range x {
						x[i] = fill[i%len(fill)]
						if th < 0 && x[i] == 0 {
							x[i] = th
						}
					}
					if p < n {
						x[p] = stop
					}
					want := firstAboveOracle(x, th)
					got := FirstAbove(x, th)
					var goBody int
					withGoBodies(func() { goBody = FirstAbove(x, th) })
					if got != want || goBody != want {
						t.Fatalf("t=%v n=%d stopper %v at %d: FirstAbove = %d (Go body %d), want %d",
							th, n, stop, p, got, goBody, want)
					}
				}
			}
		}
	}
}

// TestAdamBiasCorrectionsMatchPow pins a step's memoised corrections to the
// math.Pow expression they replaced, across the table's end, and the
// quotient constants beside them to their definitions: y = RN(1/bc), and
// bh = bc·2⁻⁵³, exact from step 1 on.
func TestAdamBiasCorrectionsMatchPow(t *testing.T) {
	for st := 0; st <= len(adamBiasTable)+3; st++ {
		w1, w2 := adamBiasOracle(0.9, 0.999, st)
		b := NewAdamStep(1, st, false).bias
		requireSameFloats(t, fmt.Sprintf("t=%d", st),
			[]float64{w1, w2, 1 / w1, 1 / w2, w1 * 0x1p-53, w2 * 0x1p-53},
			[]float64{b.bc1, b.bc2, b.y1, b.y2, b.bh1, b.bh2})
		if st > 0 && (b.bh1*0x1p53 != b.bc1 || b.bh2*0x1p53 != b.bc2) {
			t.Fatalf("t=%d: bh = (%v, %v) is not bc·2⁻⁵³ exactly", st, b.bh1, b.bh2)
		}
	}
}

// TestNewAdamStepMatchesFrontEnds pins NewAdamStep, field for field and bit
// for bit, to the three front ends it replaced, kept here at the constants
// every caller gave them (which AdamUpdate now fixes, pinned by the oracle
// sweep): nn.Adam.Update (the decayed form), and emb.AdamHyper.update and
// baselines' adamVec.step (the undecayed one), each taking its corrections
// from math.Pow. The steps straddle the bias-correction table's end and reach
// far past it.
func TestNewAdamStepMatchesFrontEnds(t *testing.T) {
	// Each front end's step as (lr, bc1, bc2, decayed).
	nnAdamUpdate := func(lr float64, t int) []float64 {
		o := standardAdamOracle(lr)
		bc1, bc2 := adamBiasOracle(o.Beta1, o.Beta2, t)
		return []float64{o.LR, bc1, bc2, 1}
	}
	embUpdate := func(lr float64, step int) []float64 {
		hy := standardAdamOracle(lr)
		bc1, bc2 := adamBiasOracle(hy.Beta1, hy.Beta2, step)
		return []float64{hy.LR, bc1, bc2, 0}
	}
	adamVecStep := func(lr float64, t int) []float64 {
		bc1, bc2 := adamBiasOracle(0.9, 0.999, t)
		return []float64{lr, bc1, bc2, 0}
	}
	fields := func(s AdamStep) []float64 {
		decayed := 0.0
		if s.decayed {
			decayed = 1
		}
		return []float64{s.lr, s.bias.bc1, s.bias.bc2, decayed}
	}
	for _, lr := range []float64{1e-3, 0.01} {
		for _, st := range []int{1, 4095, 4096, 4097, 1_000_000} {
			for _, c := range []struct {
				name    string
				decayed bool
				want    []float64
			}{
				{"nn.Adam.Update", true, nnAdamUpdate(lr, st)},
				{"emb.AdamHyper.update", false, embUpdate(lr, st)},
				{"adamVec.step", false, adamVecStep(lr, st)},
			} {
				requireSameFloats(t, fmt.Sprintf("%s lr=%v t=%d", c.name, lr, st), c.want, fields(NewAdamStep(lr, st, c.decayed)))
			}
		}
	}
}

// FuzzAdamUpdate pins every Adam body the host has to the scalar loops on
// operands whose eight-lane blocks rotate through adamRegimes from the
// seed's place. The seeds from 4 on each meet every regime (n ≥ 48), at
// t = 0 (bias corrections 0, outside the AVX-512 body's proof domain),
// inside the bias-correction table and past its end.
func FuzzAdamUpdate(f *testing.F) {
	f.Add(int64(1), uint8(16), true, uint16(1))
	f.Add(int64(2), uint8(67), false, uint16(4095))
	f.Add(int64(3), uint8(3), true, uint16(9000))
	f.Add(int64(4), uint8(48), false, uint16(0))
	f.Add(int64(5), uint8(55), true, uint16(0))
	f.Add(int64(8), uint8(49), true, uint16(2000))
	f.Add(int64(6), uint8(255), true, uint16(4096))
	f.Add(int64(7), uint8(64), false, uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, decayed bool, st uint16) {
		r := rand.New(rand.NewSource(seed))
		// A NaN step size stays defaultNaN: math.Abs would flip its sign and
		// make it a second NaN pattern (see defaultNaN).
		lr := elemOperand(r, 1)[0]
		if !math.IsNaN(lr) {
			lr = math.Abs(lr)
		}
		c := adamCase{lr: lr, decayed: decayed, st: int(st)}
		c.w, c.m, c.v, c.g = adamOperands(r, int(n), int(uint64(seed)%uint64(len(adamRegimes))))
		requireKernelMatchesOracle(t, fmt.Sprintf("Adam n=%d", n), c.run)
	})
}

// BenchmarkElementwise times each kernel at the NeuMF client step's shapes:
// one 16-wide embedding row, the 64×32 weight matrix and the tower's
// 64×64 first layer (Adam), and a bias-row add — as dispatched, on the AVX2
// bodies (the AVX-512 ones uninstalled) and on the pure Go bodies. The
// operands are normal draws: subnormal ones would time the CPU's slow path.
// Adam starts from nonzero moments and reloads its gradient from fixed
// normal draws before every step, so each step divides live moments, as
// training does, not zeros (the divider's fast path).
func BenchmarkElementwise(b *testing.B) {
	b.Run("dispatch", benchmarkElementwise)
	b.Run("avx2", func(b *testing.B) { withoutZMM(func() { benchmarkElementwise(b) }) })
	b.Run("go", func(b *testing.B) { withGoBodies(func() { benchmarkElementwise(b) }) })
}

func benchmarkElementwise(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	normal := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = r.NormFloat64()
		}
		return out
	}
	for _, n := range []int{16, 2048, 4096} {
		w, m, v, g, grads := normal(n), normal(n), normal(n), make([]float64, n), normal(n)
		for i := range m {
			m[i] *= 0.1
			v[i] *= v[i] * 0.01
		}
		s := NewAdamStep(1e-3, 1, true)
		b.Run(fmt.Sprintf("Adam/%d", n), func(b *testing.B) {
			for b.Loop() {
				copy(g, grads)
				AdamUpdate(w, m, v, g, &s)
			}
		})
	}
	bias, row := normal(64), make([]float64, 64)
	b.Run("AddVec/64", func(b *testing.B) {
		for b.Loop() {
			AddVec(bias, row)
		}
	})
	b.Run("Axpy/64", func(b *testing.B) {
		for b.Loop() {
			Axpy(0.5, bias, row)
		}
	})
}

// BenchmarkFirstAbove times a full 256-element scan that finds nothing above
// the threshold — the selector's common case between survivors — as
// dispatched and on the pure Go body.
func BenchmarkFirstAbove(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x := make([]float64, 256)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	run := func(b *testing.B) {
		for b.Loop() {
			if FirstAbove(x, 10) != len(x) {
				b.Fatal("FirstAbove stopped early")
			}
		}
	}
	b.Run("dispatch/256", run)
	b.Run("go/256", func(b *testing.B) { withGoBodies(func() { run(b) }) })
}

// TestRowVecOpsMatchAddVec pins AddToRows and SumRowsInto to the per-row
// AddVec loops they replaced (the Dense bias add and bias gradient), as
// dispatched and on the pure Go bodies, at every width 0–13 and 64 over
// 0–9 rows.
func TestRowVecOpsMatchAddVec(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, w := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 64} {
		for rows := 0; rows <= 9; rows++ {
			m, b := FromSlice(rows, w, elemOperand(r, rows*w)), elemOperand(r, w)
			want, wantSum := m.Clone(), elemOperand(r, w)
			for i := 0; i < rows; i++ {
				AddVec(b, want.Row(i))
			}
			clear(wantSum)
			for i := 0; i < rows; i++ {
				AddVec(m.Row(i), wantSum)
			}
			for _, body := range []string{"dispatch", "go"} {
				got, sum := m.Clone(), elemOperand(r, w)
				run := func() {
					AddToRows(got, b)
					SumRowsInto(sum, m)
				}
				if body == "go" {
					withGoBodies(run)
				} else {
					run()
				}
				label := fmt.Sprintf("%dx%d (%s)", rows, w, body)
				requireSameFloats(t, label+" AddToRows", want.Data, got.Data)
				requireSameFloats(t, label+" SumRowsInto", wantSum, sum)
			}
		}
	}
}
