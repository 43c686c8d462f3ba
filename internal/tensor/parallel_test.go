package tensor

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomTriplets builds a triplet set with deliberate duplicates so the
// stable summation order is exercised.
func randomTriplets(r *rand.Rand, rows, cols, n int) []Triplet {
	trips := make([]Triplet, n)
	for i := range trips {
		trips[i] = Triplet{Row: r.Intn(rows), Col: r.Intn(cols), Val: r.NormFloat64()}
	}
	return trips
}

func requireSameCSR(t *testing.T, label string, a, b *CSR) {
	t.Helper()
	if !reflect.DeepEqual(a.RowPtr, b.RowPtr) || !reflect.DeepEqual(a.ColIdx, b.ColIdx) {
		t.Fatalf("%s: CSR structure differs", label)
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			t.Fatalf("%s: Val[%d] = %v vs %v", label, i, a.Val[i], b.Val[i])
		}
	}
}

// TestNewCSRStableDuplicates checks that duplicate (row, col) values sum in
// input order — the documented semantics — and that a random triplet set with
// duplicates builds the matrix a dense accumulation gives.
func TestNewCSRStableDuplicates(t *testing.T) {
	trips := []Triplet{
		{0, 0, 1e20}, {0, 0, 1}, {0, 0, -1e20}, // order-sensitive sum
		{1, 2, 0.5}, {1, 2, 0.25},
	}
	m := NewCSR(3, 3, trips)
	// Input-order association: (1e20 + 1) absorbs the 1, then cancels to 0.
	if m.At(0, 0) != 0 {
		t.Fatalf("At(0,0) = %v, want input-order sum 0", m.At(0, 0))
	}
	if m.At(1, 2) != 0.75 || m.NNZ() != 2 {
		t.Fatalf("At(1,2) = %v with %d entries, want 0.75 with 2", m.At(1, 2), m.NNZ())
	}

	r := rand.New(rand.NewSource(17))
	const rows, cols = 230, 190
	trips = randomTriplets(r, rows, cols, 12799)
	dense := New(rows, cols)
	for _, tr := range trips {
		dense.Set(tr.Row, tr.Col, dense.At(tr.Row, tr.Col)+tr.Val)
	}
	got := NewCSR(rows, cols, trips).Dense()
	for i := range dense.Data {
		if diff := got.Data[i] - dense.Data[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("CSR[%d] = %v, dense accumulation = %v", i, got.Data[i], dense.Data[i])
		}
	}
}

// TestNewCSROutOfRangePanics feeds a bad triplet after a good one.
func TestNewCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range triplet did not panic")
		}
	}()
	NewCSR(2, 2, []Triplet{{0, 0, 1}, {5, 0, 1}})
}

// TestParKernelsMatchSerial pins the row-partitioned kernels' bitwise
// equality with their serial counterparts.
func TestParKernelsMatchSerial(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const n, m, k = 300, 70, 9
	sp := NewCSR(n, m, randomTriplets(r, n, m, 2500))
	x := New(m, k)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	a := New(n, k)
	c := New(12, k)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := range c.Data {
		c.Data[i] = r.NormFloat64()
	}

	for _, workers := range []int{2, 8} {
		if !reflect.DeepEqual(sp.MulDense(x).Data, sp.MulDensePar(x, workers).Data) {
			t.Fatalf("MulDensePar(%d) differs from serial", workers)
		}
		if !reflect.DeepEqual(MatMul(a, x.Transpose()).Data, MatMulPar(a, x.Transpose(), workers).Data) {
			t.Fatalf("MatMulPar(%d) differs from serial", workers)
		}
		if !reflect.DeepEqual(MatMulABT(a, c).Data, MatMulABTPar(a, c, workers).Data) {
			t.Fatalf("MatMulABTPar(%d) differs from serial", workers)
		}
	}
}

// TestMatMulATBParWorkerInvariance pins ATB's chunked-reduction contract: the
// result is identical for every worker count (including 1) once the leading
// dimension spans multiple shards.
func TestMatMulATBParWorkerInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	rows := 2*atbChunkRows + 77
	a := New(rows, 6)
	b := New(rows, 4)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	ref := MatMulATBPar(a, b, 1)
	for _, workers := range []int{2, 3, 8} {
		got := MatMulATBPar(a, b, workers)
		if !reflect.DeepEqual(ref.Data, got.Data) {
			t.Fatalf("MatMulATBPar(%d) differs from workers=1", workers)
		}
	}
	// Against the serial kernel the chunked reduction is equal up to float
	// association only.
	serial := MatMulATB(a, b)
	for i := range serial.Data {
		if diff := serial.Data[i] - ref.Data[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("ATB[%d] = %v, serial %v", i, ref.Data[i], serial.Data[i])
		}
	}
}
