package tensor

// The scalar loops the elementwise kernels (elem.go) replaced, kept verbatim
// as their references — nn.Adam's step, the embedding tables' sparse Adam
// step, nn's ReLU forward and backward, and the vector adds — and the tests
// that pin every kernel, with its assembly body and with the pure Go one, to
// them bit for bit.

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

// reluIntoOracle is nn.ReLUInto's loop.
func reluIntoOracle(dst, x []float64) {
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// reluBackwardOracle is nn.ReLUBackwardInPlace's loop.
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
	adam, relu, mask, add, axpy, above := adamKernel, reluKernel, reluMaskKernel, addVecKernel, axpyKernel, firstAboveKernel
	spmm, spmmT, reluCSR, maskCSR, transpose := spmmKernel, spmmTKernel, reluCSRKernel, reluMaskCSRKernel, transposeKernel
	adamKernel, reluKernel, reluMaskKernel, addVecKernel, axpyKernel, firstAboveKernel = nil, nil, nil, nil, nil, nil
	spmmKernel, spmmTKernel, reluCSRKernel, reluMaskCSRKernel, transposeKernel = nil, nil, nil, nil, nil
	defer func() {
		adamKernel, reluKernel, reluMaskKernel, addVecKernel, axpyKernel, firstAboveKernel = adam, relu, mask, add, axpy, above
		spmmKernel, spmmTKernel, reluCSRKernel, reluMaskCSRKernel, transposeKernel = spmm, spmmT, reluCSR, maskCSR, transpose
	}()
	withoutZMM(f)
}

// withoutZMM runs f with the AVX-512 sparse kernels uninstalled, so the
// sparse entry points run their AVX2 bodies.
func withoutZMM(f func()) {
	wide, wideT, relu, mask := spmmWideKernel, spmmTWideKernel, reluCSRWideKernel, reluMaskCSRWideKernel
	spmmWideKernel, spmmTWideKernel, reluCSRWideKernel, reluMaskCSRWideKernel = nil, nil, nil, nil
	defer func() {
		spmmWideKernel, spmmTWideKernel, reluCSRWideKernel, reluMaskCSRWideKernel = wide, wideT, relu, mask
	}()
	f()
}

// requireKernelMatchesOracle runs one kernel case: run(false) computes the
// outputs through the verbatim scalar loop, run(true) through the kernel
// entry point — once as dispatched and, where assembly is installed, once
// more on the pure Go bodies. Every output must carry the oracle's bits. On
// a target whose compiler fuses the oracle's own multiply-adds only the
// assembly-against-Go half runs.
func requireKernelMatchesOracle(t *testing.T, label string, run func(kernel bool) [][]float64) {
	t.Helper()
	got := run(true)
	if !compilerFusesMulAdd() {
		for i, want := range run(false) {
			requireSameFloats(t, fmt.Sprintf("%s output %d", label, i), want, got[i])
		}
	}
	if adamKernel == nil {
		return
	}
	var goBody [][]float64
	withGoBodies(func() { goBody = run(true) })
	for i, want := range got {
		requireSameFloats(t, fmt.Sprintf("%s output %d (Go body vs assembly)", label, i), want, goBody[i])
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
		AdamUpdate(w, m, v, g, &AdamStep{LR: c.lr, BC1: bc1, BC2: bc2, Decayed: c.decayed})
	case c.decayed:
		adamStepRangeOracle(&hy, g, w, m, v, bc1, bc2)
	default:
		lazyTableStepOracle(hy, &lazyRowOracle{w: w, m: m, v: v, grad: g}, bc1, bc2)
	}
	return [][]float64{w, m, v, g}
}

// adamHypers are the forms and steps the Adam pin sweeps: nn.Adam's decayed
// form and the tables' form, at steps inside the bias-correction table and
// past its end.
var adamHypers = []struct {
	lr      float64
	decayed bool
	st      int
}{
	{1e-3, true, 1},
	{1e-3, false, 1},
	{0.01, true, 37},
	{0.01, false, 250},
	{0.05, true, 5000},
	{0.05, false, 5000},
}

// TestElemKernelsMatchOracle sweeps every kernel over lengths 0–67, so the
// four-lane body and every tail length run, on adversarial operands.
func TestElemKernelsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 67; n++ {
		for hi, h := range adamHypers {
			c := adamCase{lr: h.lr, decayed: h.decayed, st: h.st,
				w: elemOperand(r, n), m: elemOperand(r, n), v: elemOperand(r, n), g: elemOperand(r, n)}
			requireKernelMatchesOracle(t, fmt.Sprintf("Adam n=%d hyper %d", n, hi), c.run)
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
		requireKernelMatchesOracle(t, fmt.Sprintf("ReLU n=%d", n), func(kernel bool) [][]float64 {
			dst := slices.Repeat([]float64{defaultNaN()}, n)
			if kernel {
				ReLUVec(dst, x)
			} else {
				reluIntoOracle(dst, x)
			}
			return [][]float64{dst}
		})
		requireKernelMatchesOracle(t, fmt.Sprintf("ReLU backward n=%d", n), func(kernel bool) [][]float64 {
			dy := slices.Clone(y)
			if kernel {
				ReLUBackwardVec(x, dy)
			} else {
				reluBackwardOracle(x, dy)
			}
			return [][]float64{dy}
		})
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

// TestAdamBiasCorrectionsMatchPow pins the memoised corrections to the
// math.Pow expression they replaced, across the table's end.
func TestAdamBiasCorrectionsMatchPow(t *testing.T) {
	for st := 0; st <= len(adamBiasTable)+3; st++ {
		w1, w2 := adamBiasOracle(0.9, 0.999, st)
		g1, g2 := AdamBiasCorrections(st)
		requireSameFloats(t, fmt.Sprintf("t=%d", st), []float64{w1, w2}, []float64{g1, g2})
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
	nnAdamUpdate := func(lr float64, t int) AdamStep {
		o := standardAdamOracle(lr)
		bc1, bc2 := adamBiasOracle(o.Beta1, o.Beta2, t)
		return AdamStep{LR: o.LR, BC1: bc1, BC2: bc2, Decayed: true}
	}
	embUpdate := func(lr float64, step int) AdamStep {
		hy := standardAdamOracle(lr)
		bc1, bc2 := adamBiasOracle(hy.Beta1, hy.Beta2, step)
		return AdamStep{LR: hy.LR, BC1: bc1, BC2: bc2}
	}
	adamVecStep := func(lr float64, t int) AdamStep {
		bc1, bc2 := adamBiasOracle(0.9, 0.999, t)
		return AdamStep{LR: lr, BC1: bc1, BC2: bc2}
	}
	fields := func(s AdamStep) []float64 {
		decayed := 0.0
		if s.Decayed {
			decayed = 1
		}
		return []float64{s.LR, s.BC1, s.BC2, decayed}
	}
	for _, lr := range []float64{1e-3, 0.01} {
		for _, st := range []int{1, 4095, 4096, 4097, 1_000_000} {
			for _, c := range []struct {
				name    string
				decayed bool
				want    AdamStep
			}{
				{"nn.Adam.Update", true, nnAdamUpdate(lr, st)},
				{"emb.AdamHyper.update", false, embUpdate(lr, st)},
				{"adamVec.step", false, adamVecStep(lr, st)},
			} {
				requireSameFloats(t, fmt.Sprintf("%s lr=%v t=%d", c.name, lr, st), fields(c.want), fields(NewAdamStep(lr, st, c.decayed)))
			}
		}
	}
}

func FuzzAdamUpdate(f *testing.F) {
	f.Add(int64(1), uint8(16), true, uint16(1))
	f.Add(int64(2), uint8(67), false, uint16(4095))
	f.Add(int64(3), uint8(3), true, uint16(9000))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, decayed bool, st uint16) {
		r := rand.New(rand.NewSource(seed))
		// A NaN step size stays defaultNaN: math.Abs would flip its sign and
		// make it a second NaN pattern (see defaultNaN).
		lr := elemOperand(r, 1)[0]
		if !math.IsNaN(lr) {
			lr = math.Abs(lr)
		}
		c := adamCase{lr: lr, decayed: decayed, st: int(st),
			w: elemOperand(r, int(n)), m: elemOperand(r, int(n)), v: elemOperand(r, int(n)), g: elemOperand(r, int(n))}
		requireKernelMatchesOracle(t, fmt.Sprintf("Adam n=%d", n), c.run)
	})
}

// BenchmarkElementwise times each kernel at the NeuMF client step's shapes: a
// 64-sample batch through the 64-wide hidden layer (ReLU forward and mask),
// the 64×32 weight matrix and one 16-wide embedding row (Adam), and a
// bias-row add — as dispatched, and again on the pure Go bodies. The
// operands are normal draws: subnormal ones would time the CPU's slow path.
func BenchmarkElementwise(b *testing.B) {
	b.Run("dispatch", benchmarkElementwise)
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
	for _, n := range []int{16, 2048} {
		w, m, v, g := normal(n), make([]float64, n), make([]float64, n), make([]float64, n)
		s := &AdamStep{LR: 1e-3, BC1: 0.1, BC2: 0.001, Decayed: true}
		b.Run(fmt.Sprintf("Adam/%d", n), func(b *testing.B) {
			for b.Loop() {
				AdamUpdate(w, m, v, g, s)
			}
		})
	}
	x, dst := normal(64*64), make([]float64, 64*64)
	b.Run("ReLU/64x64", func(b *testing.B) {
		for b.Loop() {
			ReLUVec(dst, x)
		}
	})
	b.Run("ReLUBackward/64x64", func(b *testing.B) {
		for b.Loop() {
			ReLUBackwardVec(x, dst)
		}
	})
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
