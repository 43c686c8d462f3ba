package nn

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

func TestSigmoidStable(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1000, 1},
		{-1000, 0},
	}
	for _, c := range cases {
		got := Sigmoid(c.x)
		if math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Sigmoid(%v) = %v, want %v", c.x, got, c.want)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("Sigmoid(%v) not finite", c.x)
		}
	}
}

func TestSigmoidSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return math.Abs(Sigmoid(x)+Sigmoid(-x)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeakyReLU(t *testing.T) {
	x := tensor.FromSlice(1, 2, []float64{-2, 3})
	y := LeakyReLUInto(tensor.New(1, 2), x, 0.2)
	if y.Data[0] != -0.4 || y.Data[1] != 3 {
		t.Fatalf("LeakyReLUInto -> %v", y.Data)
	}
	dx := tensor.FromSlice(1, 2, []float64{1, 1})
	LeakyReLUBackwardInPlace(x, dx, 0.2)
	if dx.Data[0] != 0.2 || dx.Data[1] != 1 {
		t.Fatalf("LeakyReLUBackwardInPlace -> %v", dx.Data)
	}
	if LeakyReLUInto(x, x, 0.2); x.Data[0] != -0.4 || x.Data[1] != 3 {
		t.Fatalf("LeakyReLUInto in place -> %v", x.Data)
	}
}

func TestBCEKnownValues(t *testing.T) {
	// Perfect prediction -> ~0 loss; 0.5 prediction -> ln 2.
	if got := BCEOne(0.5, 1); math.Abs(got-math.Ln2) > 1e-9 {
		t.Fatalf("BCEOne(0.5,1) = %v, want ln2", got)
	}
	if got := BCEOne(1-1e-9, 1); got > 1e-5 {
		t.Fatalf("BCEOne(≈1,1) = %v, want ≈0", got)
	}
}

// TestBCEOneMatchesTwoLogForm pins BCEOne's one-log shortcut for hard labels
// to the two-log form it replaced, bit for bit, over predictions through both
// clamps, 0.5 and the doubles next to 1e-7 and 1 − 1e-7, at labels 0, 1 and
// the soft 0.3.
func TestBCEOneMatchesTwoLogForm(t *testing.T) {
	twoLog := func(pred, target float64) float64 {
		p := clamp01(pred)
		return -(target*math.Log(p) + (1-target)*math.Log(1-p))
	}
	preds := []float64{-1, 0, 1e-300, 0.5, 0.25, 0.75, 1, 2}
	for _, edge := range []float64{bceEps, 1 - bceEps} {
		for _, x := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, 1)} {
			preds = append(preds, x, math.Nextafter(x, 0), math.Nextafter(x, 1))
		}
	}
	for i := 1; i < 100; i++ {
		preds = append(preds, float64(i)/100)
	}
	for _, target := range []float64{0, 1, 0.3} {
		for _, p := range preds {
			if got, want := BCEOne(p, target), twoLog(p, target); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("BCEOne(%v, %v) = %v (%#x), two-log form %v (%#x)", p, target, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestBCEClampsExtremes(t *testing.T) {
	for _, c := range [][2]float64{{0, 1}, {1, 0}} {
		if got := BCEOne(c[0], c[1]); math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("BCEOne(%v, %v) not finite: %v", c[0], c[1], got)
		}
	}
}

func TestBCESoftLabels(t *testing.T) {
	// With soft target t, loss is minimised at p = t.
	at := BCEOne(0.3, 0.3)
	off := BCEOne(0.5, 0.3)
	if at >= off {
		t.Fatalf("soft-label BCE not minimised at target: %v vs %v", at, off)
	}
}

// numGrad computes the centered finite difference of f at x[i].
func numGrad(f func() float64, x []float64, i int) float64 {
	const h = 1e-6
	orig := x[i]
	x[i] = orig + h
	fp := f()
	x[i] = orig - h
	fm := f()
	x[i] = orig
	return (fp - fm) / (2 * h)
}

// forward is d's forward into a new matrix.
func forward(d *Dense, x *tensor.Matrix) *tensor.Matrix {
	return d.ForwardInto(tensor.New(x.Rows, d.Out), x)
}

// backward is the accumulating backward, built from tensor's products alone:
// it adds dW = xᵀ·dy and db = Σ dy into d's gradients and returns
// dx = dy·Wᵀ as a new matrix.
func backward(d *Dense, x, dy *tensor.Matrix) *tensor.Matrix {
	wGrad := tensor.New(d.In, d.Out)
	tensor.MatMulATBInto(wGrad, x, dy)
	d.W.Grad.AddInPlace(wGrad)
	for i := 0; i < dy.Rows; i++ {
		tensor.AddVec(dy.Row(i), d.B.Grad.Row(0))
	}
	dx := tensor.New(dy.Rows, d.In)
	tensor.MatMulABTInto(dx, dy, d.W.W, tensor.New(d.Out, d.In))
	return dx
}

func TestDenseGradCheck(t *testing.T) {
	s := rng.New(42)
	d := NewDense("t", 3, 2, s)
	x := tensor.FromSlice(2, 3, []float64{0.1, -0.2, 0.3, 0.5, 0.4, -0.1})
	target := []float64{1, 0, 0.7, 0.2}

	n := float64(len(target))
	loss := func() float64 {
		var sum float64
		for i, v := range forward(d, x).Data {
			sum += BCEOne(Sigmoid(v), target[i])
		}
		return sum / n
	}

	// Analytic gradients: dL/dlogit = (σ(logit) − target) / n.
	dy := forward(d, x)
	for i, v := range dy.Data {
		dy.Data[i] = (Sigmoid(v) - target[i]) / n
	}
	dx := backward(d, x, dy)

	// Check W gradient.
	for i := range d.W.W.Data {
		want := numGrad(loss, d.W.W.Data, i)
		got := d.W.Grad.Data[i]
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("dW[%d] = %v, want %v", i, got, want)
		}
	}
	// Check b gradient.
	for i := range d.B.W.Data {
		want := numGrad(loss, d.B.W.Data, i)
		got := d.B.Grad.Data[i]
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("db[%d] = %v, want %v", i, got, want)
		}
	}
	// Check input gradient.
	for i := range x.Data {
		want := numGrad(loss, x.Data, i)
		if math.Abs(dx.Data[i]-want) > 1e-6 {
			t.Fatalf("dx[%d] = %v, want %v", i, dx.Data[i], want)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise (w-3)² — Adam should land close to 3.
	p := NewParam("w", 1, 1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.W.Data[0] - 3)
		Adam(0.1, []*Param{p})
	}
	if math.Abs(p.W.Data[0]-3) > 1e-3 {
		t.Fatalf("Adam converged to %v, want 3", p.W.Data[0])
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// Bias correction makes the first step ≈ lr regardless of gradient scale.
	p := NewParam("w", 1, 1)
	p.Grad.Data[0] = 1e-4
	Adam(0.01, []*Param{p})
	if math.Abs(math.Abs(p.W.Data[0])-0.01) > 1e-4 {
		t.Fatalf("first Adam step = %v, want ≈0.01", p.W.Data[0])
	}
}

// TestAdamKeepsZeroWeightDecayTerm pins Adam's decayed form at weight decay
// 0: the term 0·w turns a −0 gradient into +0, so a −0 moment steps to +0.
// The embedding tables' form, which never adds the term, would keep it −0.
func TestAdamKeepsZeroWeightDecayTerm(t *testing.T) {
	negZero := math.Copysign(0, -1)
	p := NewParam("w", 1, 6)
	for i := range p.W.Data {
		p.W.Data[i], p.Grad.Data[i] = 1, negZero
		p.M.Data[i], p.V.Data[i] = negZero, negZero
	}
	Adam(0.01, []*Param{p})
	for i := range p.W.Data {
		if m, v := p.M.Data[i], p.V.Data[i]; math.Signbit(m) || math.Signbit(v) || m != 0 || v != 0 {
			t.Fatalf("element %d: moments (%v, %v) after a −0 gradient, want (+0, +0)", i, m, v)
		}
	}
}

// TestAdamUpdateMatchesStep pins Adam to the kernel it runs: a caller that
// keeps its own weights, moments and step counter and applies
// tensor.NewAdamStep(lr, t, true) through tensor.AdamUpdate moves them
// exactly as Adam moves the parameter's W, M, V and T.
func TestAdamUpdateMatchesStep(t *testing.T) {
	const rows, cols = 9, 4
	p := NewParam("p", rows, cols)
	Normal(rng.New(3), p.W, 0.1)
	w := p.W.Clone()
	m, v, g := tensor.New(rows, cols), tensor.New(rows, cols), tensor.New(rows, cols)
	gs := rng.New(5)
	for step := 1; step <= 6; step++ {
		for i := range g.Data {
			x := gs.Normal(0, 1)
			g.Data[i], p.Grad.Data[i] = x, x
		}
		Adam(0.01, []*Param{p})
		u := tensor.NewAdamStep(0.01, step, true)
		tensor.AdamUpdate(w.Data, m.Data, v.Data, g.Data, &u)
		if p.T != step {
			t.Fatalf("step %d: T = %d", step, p.T)
		}
		for _, pair := range [][2]*tensor.Matrix{{w, p.W}, {m, p.M}, {v, p.V}} {
			for i, x := range pair[0].Data {
				if math.Float64bits(x) != math.Float64bits(pair[1].Data[i]) {
					t.Fatalf("step %d: element %d is %v under AdamUpdate, %v under Adam", step, i, x, pair[1].Data[i])
				}
			}
		}
	}
}

func TestXavierRange(t *testing.T) {
	s := rng.New(1)
	m := tensor.New(10, 10)
	Xavier(s, m, 10, 10)
	limit := math.Sqrt(6.0 / 20)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
	if !slices.ContainsFunc(m.Data, func(v float64) bool { return v != 0 }) {
		t.Fatal("Xavier left matrix zero")
	}
}
