package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestCSRBasic(t *testing.T) {
	m := NewCSR(3, 3, []Triplet{
		{0, 1, 2}, {1, 0, 3}, {2, 2, 1}, {0, 1, 1}, // duplicate (0,1) sums to 3
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(0, 1) != 3 {
		t.Fatalf("At(0,1) = %v", m.At(0, 1))
	}
	if m.At(0, 0) != 0 {
		t.Fatalf("At(0,0) = %v", m.At(0, 0))
	}
	if m.RowNNZ(0) != 1 || m.RowNNZ(1) != 1 || m.RowNNZ(2) != 1 {
		t.Fatal("RowNNZ wrong")
	}
}

func TestCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range triplet did not panic")
		}
	}()
	NewCSR(2, 2, []Triplet{{2, 0, 1}})
}

func TestCSRMulDenseMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n, m, k = 13, 9, 5
	var trips []Triplet
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if r.Float64() < 0.3 {
				trips = append(trips, Triplet{i, j, r.NormFloat64()})
			}
		}
	}
	sp := NewCSR(n, m, trips)
	x := New(m, k)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	got := sp.MulDense(x)
	want := MatMul(sp.Dense(), x)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-10 {
			t.Fatalf("MulDense[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestCSREmptyRows(t *testing.T) {
	m := NewCSR(4, 4, []Triplet{{1, 1, 5}})
	x := FromSlice(4, 2, []float64{1, 1, 1, 1, 1, 1, 1, 1})
	out := m.MulDense(x)
	if out.At(0, 0) != 0 || out.At(1, 0) != 5 || out.At(3, 1) != 0 {
		t.Fatalf("empty-row MulDense -> %v", out.Data)
	}
}

func TestCSRNoEntries(t *testing.T) {
	m := NewCSR(3, 3, nil)
	if m.NNZ() != 0 {
		t.Fatal("expected empty CSR")
	}
	out := m.MulDense(New(3, 1))
	if slices.ContainsFunc(out.Data, func(v float64) bool { return v != 0 }) {
		t.Fatal("empty CSR should produce zero product")
	}
}

// TestMulDenseRowsIntoMatchesFull pins the row-subset SpMM: the k-th packed
// row is bitwise what MulDenseInto computes for the k-th listed row, whatever
// dst held before.
func TestMulDenseRowsIntoMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n, k = 700, 5
	var trips []Triplet
	for i := 0; i < 4000; i++ {
		trips = append(trips, Triplet{r.Intn(n), r.Intn(n), r.NormFloat64()})
	}
	sp := NewCSR(n, n, trips)
	x := New(n, k)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	want := New(n, k)
	sp.MulDenseInto(want, x)

	rows := r.Perm(n)[:n/3]
	const sentinel = 12345.5
	got := New(len(rows), k)
	for i := range got.Data {
		got.Data[i] = sentinel
	}
	sp.MulDenseRowsInto(got, x, rows)
	for j, i := range rows {
		for c, v := range got.Row(j) {
			if math.Float64bits(v) != math.Float64bits(want.At(i, c)) {
				t.Fatalf("packed row %d (row %d) col %d = %v, full SpMM %v", j, i, c, v, want.At(i, c))
			}
		}
	}
}
