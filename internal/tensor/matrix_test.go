package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v", got)
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row(1)[2] = %v", row[2])
	}
	row[0] = 3 // Row aliases storage.
	if m.At(1, 0) != 3 {
		t.Fatal("Row does not alias storage")
	}
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(c.Data[i], w) {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MatMul did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulATBMatchesExplicitTranspose(t *testing.T) {
	a := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{-1, 0.5, 2, -2, 0, 1})
	got := MatMulATB(a, b)
	want := MatMul(a.Transpose(), b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatalf("ATB[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulABTMatchesExplicitTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(4, 3, []float64{1, 0, -1, 2, 2, 2, 0, 1, 0, -3, 1, 5})
	got := MatMulABT(a, b)
	want := MatMul(a, b.Transpose())
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatalf("ABT[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(vals [12]float64) bool {
		m := FromSlice(3, 4, vals[:])
		tt := m.Transpose().Transpose()
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddScaleSub(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{4, 3, 2, 1})
	a.AddInPlace(b)
	for _, v := range a.Data {
		if v != 5 {
			t.Fatalf("AddInPlace -> %v", a.Data)
		}
	}
	a.Scale(2)
	if a.At(0, 0) != 10 {
		t.Fatalf("Scale -> %v", a.Data)
	}
	a.AddScaled(0.5, b)
	if a.At(0, 0) != 12 {
		t.Fatalf("AddScaled -> %v", a.Data)
	}
}

func TestHadamard(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{2, 2, 2, 2})
	c := Hadamard(a, b)
	want := []float64{2, 4, 6, 8}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("Hadamard[%d] = %v", i, c.Data[i])
		}
	}
	dst := New(2, 2)
	HadamardInto(dst, a, b)
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("HadamardInto[%d] = %v", i, dst.Data[i])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestNormAndMaxAbs(t *testing.T) {
	m := FromSlice(1, 2, []float64{3, -4})
	if !almostEq(m.Norm(), 5) {
		t.Fatalf("Norm = %v", m.Norm())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestApplyAndFill(t *testing.T) {
	m := FromSlice(2, 2, []float64{4, 4, 4, 4})
	m.Apply(math.Sqrt)
	for _, v := range m.Data {
		if v != 2 {
			t.Fatalf("Apply -> %v", m.Data)
		}
	}
}

func TestConcatCols(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 1, []float64{9, 8})
	c := ConcatCols(a, b)
	if c.Cols != 3 || c.At(0, 2) != 9 || c.At(1, 2) != 8 || c.At(1, 1) != 4 {
		t.Fatalf("ConcatCols -> %v", c.Data)
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	y := CloneVec(b)
	Axpy(2, a, y)
	if y[0] != 6 || y[2] != 12 {
		t.Fatalf("Axpy -> %v", y)
	}
	AddVec(a, y)
	if y[0] != 7 {
		t.Fatalf("AddVec -> %v", y)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (AB)C == A(BC) up to floating point noise.
	f := func(av, bv, cv [4]float64) bool {
		a := FromSlice(2, 2, av[:])
		b := FromSlice(2, 2, bv[:])
		c := FromSlice(2, 2, cv[:])
		l := MatMul(MatMul(a, b), c)
		r := MatMul(a, MatMul(b, c))
		for i := range l.Data {
			diff := math.Abs(l.Data[i] - r.Data[i])
			scale := math.Max(1, math.Max(math.Abs(l.Data[i]), math.Abs(r.Data[i])))
			if diff/scale > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
