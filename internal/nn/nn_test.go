package nn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"ptffedrec/internal/persist"
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

func TestReLUForwardBackward(t *testing.T) {
	x := tensor.FromSlice(1, 4, []float64{-1, 0, 2, -3})
	y := ReLU(x)
	want := []float64{0, 0, 2, 0}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("ReLU[%d] = %v", i, y.Data[i])
		}
	}
	dy := tensor.FromSlice(1, 4, []float64{1, 1, 1, 1})
	dx := ReLUBackward(x, dy)
	wantG := []float64{0, 0, 1, 0}
	for i, w := range wantG {
		if dx.Data[i] != w {
			t.Fatalf("ReLUBackward[%d] = %v", i, dx.Data[i])
		}
	}
}

func TestLeakyReLU(t *testing.T) {
	x := tensor.FromSlice(1, 2, []float64{-2, 3})
	y := LeakyReLU(x, 0.2)
	if y.Data[0] != -0.4 || y.Data[1] != 3 {
		t.Fatalf("LeakyReLU -> %v", y.Data)
	}
	dx := LeakyReLUBackward(x, tensor.FromSlice(1, 2, []float64{1, 1}), 0.2)
	if dx.Data[0] != 0.2 || dx.Data[1] != 1 {
		t.Fatalf("LeakyReLUBackward -> %v", dx.Data)
	}
}

func TestTanhBackward(t *testing.T) {
	x := tensor.FromSlice(1, 1, []float64{0.7})
	y := Tanh(x)
	dy := tensor.FromSlice(1, 1, []float64{1})
	dx := TanhBackward(y, dy)
	want := 1 - math.Tanh(0.7)*math.Tanh(0.7)
	if math.Abs(dx.Data[0]-want) > 1e-12 {
		t.Fatalf("TanhBackward = %v, want %v", dx.Data[0], want)
	}
}

func TestBCEKnownValues(t *testing.T) {
	// Perfect prediction -> ~0 loss; 0.5 prediction -> ln 2.
	if got := BCE([]float64{0.5}, []float64{1}); math.Abs(got-math.Ln2) > 1e-9 {
		t.Fatalf("BCE(0.5,1) = %v, want ln2", got)
	}
	if got := BCE([]float64{1 - 1e-9}, []float64{1}); got > 1e-5 {
		t.Fatalf("BCE(≈1,1) = %v, want ≈0", got)
	}
	if got := BCE(nil, nil); got != 0 {
		t.Fatalf("BCE(empty) = %v", got)
	}
}

func TestBCEClampsExtremes(t *testing.T) {
	got := BCE([]float64{0, 1}, []float64{1, 0})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("BCE at extremes not finite: %v", got)
	}
}

func TestBCESoftLabels(t *testing.T) {
	// With soft target t, loss is minimised at p = t.
	at := BCE([]float64{0.3}, []float64{0.3})
	off := BCE([]float64{0.5}, []float64{0.3})
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

func TestDenseGradCheck(t *testing.T) {
	s := rng.New(42)
	d := NewDense("t", 3, 2, s)
	x := tensor.FromSlice(2, 3, []float64{0.1, -0.2, 0.3, 0.5, 0.4, -0.1})
	target := []float64{1, 0, 0.7, 0.2}

	loss := func() float64 {
		y := d.Forward(x)
		pred := make([]float64, len(y.Data))
		for i, v := range y.Data {
			pred[i] = Sigmoid(v)
		}
		return BCE(pred, target)
	}

	// Analytic gradients.
	y := d.Forward(x)
	pred := make([]float64, len(y.Data))
	for i, v := range y.Data {
		pred[i] = Sigmoid(v)
	}
	g := BCELogitGrad(pred, target)
	dy := tensor.FromSlice(2, 2, g)
	dx := d.Backward(x, dy)

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

// TestDenseBackwardIntoMatchesBackward pins the workspace form to the
// allocating one: written into garbage-filled destinations, BackwardInto
// yields the bits Backward accumulates into zero gradients and returns.
func TestDenseBackwardIntoMatchesBackward(t *testing.T) {
	s := rng.New(8)
	d := NewDense("t", 7, 5, s)
	x, dy := tensor.New(9, 7), tensor.New(9, 5)
	Normal(s, x, 1)
	Normal(s, dy, 1)
	dirty := func(rows, cols int) *tensor.Matrix {
		m := tensor.New(rows, cols)
		Normal(s, m, 1)
		return m
	}
	dx, wGrad, bGrad := dirty(9, 7), dirty(7, 5), dirty(1, 5)
	d.BackwardInto(dx, x, dy, wGrad, bGrad, dirty(5, 7))
	want := d.Backward(x, dy)
	for _, c := range []struct {
		name      string
		got, want *tensor.Matrix
	}{{"dx", dx, want}, {"dW", wGrad, d.W.Grad}, {"db", bGrad, d.B.Grad}} {
		for i, w := range c.want.Data {
			if math.Float64bits(c.got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%s[%d] = %v, Backward gives %v", c.name, i, c.got.Data[i], w)
			}
		}
	}
}

func TestSGDStep(t *testing.T) {
	p := NewParam("p", 1, 2)
	p.W.Data[0], p.W.Data[1] = 1, 2
	p.Grad.Data[0], p.Grad.Data[1] = 0.5, -0.5
	(&SGD{LR: 0.1}).Step([]*Param{p})
	if math.Abs(p.W.Data[0]-0.95) > 1e-12 || math.Abs(p.W.Data[1]-2.05) > 1e-12 {
		t.Fatalf("SGD -> %v", p.W.Data)
	}
	if p.Grad.Data[0] != 0 {
		t.Fatal("SGD did not zero gradients")
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := NewParam("p", 1, 1)
	p.W.Data[0] = 1
	(&SGD{LR: 0.1, WeightDecay: 0.5}).Step([]*Param{p})
	if math.Abs(p.W.Data[0]-0.95) > 1e-12 {
		t.Fatalf("SGD decay -> %v", p.W.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise (w-3)² — Adam should land close to 3.
	p := NewParam("w", 1, 1)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.W.Data[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.W.Data[0]-3) > 1e-3 {
		t.Fatalf("Adam converged to %v, want 3", p.W.Data[0])
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// Bias correction makes the first step ≈ lr regardless of gradient scale.
	p := NewParam("w", 1, 1)
	p.Grad.Data[0] = 1e-4
	NewAdam(0.01).Step([]*Param{p})
	if math.Abs(math.Abs(p.W.Data[0])-0.01) > 1e-4 {
		t.Fatalf("first Adam step = %v, want ≈0.01", p.W.Data[0])
	}
}

// adamBytes is the optimizer's serialised state for p followed by p's
// weights and gradient — everything a step may change.
func adamBytes(t *testing.T, o *Adam, p *Param) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.SnapshotState(&buf, []*Param{p}); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]float64{p.W.Data, p.Grad.Data} {
		if err := persist.WriteFloat64s(&buf, data); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestAdamStepRowsMatchesStep pins StepRows' contract: over every row it is
// Step bitwise (weights, both moments, step counter, zeroed gradient), and
// over the rows that have ever had a gradient it still is, because the rows
// it skips have nothing to update. MomentRows names exactly those rows.
func TestAdamStepRowsMatchesStep(t *testing.T) {
	const rows, cols = 9, 4
	active := []int{7, 1, 4}
	all := make([]int, rows)
	for i := range all {
		all[i] = i
	}
	newParam := func() *Param {
		p := NewParam("p", rows, cols)
		Normal(rng.New(3), p.W, 0.1)
		return p
	}
	dense, full, sparse := newParam(), newParam(), newParam()
	od, of, os := NewAdam(0.01), NewAdam(0.01), NewAdam(0.01)
	g := rng.New(5)
	for step := 0; step < 6; step++ {
		for _, r := range active[:1+step%len(active)] {
			for c := 0; c < cols; c++ {
				v := g.Normal(0, 1)
				dense.Grad.Row(r)[c], full.Grad.Row(r)[c], sparse.Grad.Row(r)[c] = v, v, v
			}
		}
		od.Step([]*Param{dense})
		of.StepRows(full, all)
		os.StepRows(sparse, active)
		want := adamBytes(t, od, dense)
		if !bytes.Equal(adamBytes(t, of, full), want) {
			t.Fatalf("step %d: StepRows over all rows differs from Step", step)
		}
		if !bytes.Equal(adamBytes(t, os, sparse), want) {
			t.Fatalf("step %d: StepRows over the active rows differs from Step", step)
		}
	}
	if got := os.MomentRows(nil, sparse); len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 7 {
		t.Fatalf("MomentRows = %v, want [1 4 7]", got)
	}
	if got := NewAdam(0.01).MomentRows(nil, sparse); len(got) != 0 {
		t.Fatalf("MomentRows of an unstepped optimizer = %v", got)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", 1, 2)
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4 // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v", pre)
	}
	var norm float64
	for _, g := range p.Grad.Data {
		norm += g * g
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v", math.Sqrt(norm))
	}
}

func TestClipGradNormNoop(t *testing.T) {
	p := NewParam("p", 1, 1)
	p.Grad.Data[0] = 0.5
	ClipGradNorm([]*Param{p}, 1)
	if p.Grad.Data[0] != 0.5 {
		t.Fatal("clip modified a small gradient")
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
	if m.Norm() == 0 {
		t.Fatal("Xavier left matrix zero")
	}
}
