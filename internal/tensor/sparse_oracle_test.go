package tensor

// The per-entry loop the SpMM row kernel (sparse.go's spmmRows) replaced, kept
// verbatim as its reference, and the tests that pin every SpMM entry point,
// with the assembly body and with the pure Go one, to it bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mulRowsOracle is the loop CSR.mulRows ran: clear the row, then one Axpy per
// stored entry.
func mulRowsOracle(m *CSR, dst []float64, x *Matrix, rows []int) {
	for k, i := range rows {
		drow := dst[k*x.Cols : (k+1)*x.Cols]
		clear(drow)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			Axpy(m.Val[p], x.Row(m.ColIdx[p]), drow)
		}
	}
}

// adversarialCSR builds an n×cols matrix entry by entry, the way Reshape and
// GrowNNZ let an engine fill one: about a quarter of the rows empty, the rest
// up to 12 entries with repeated and unsorted columns allowed, and weights
// from elemOperand.
func adversarialCSR(r *rand.Rand, n, cols int) *CSR {
	m := &CSR{}
	m.Reshape(n, cols)
	m.RowPtr[0] = 0
	for i := 0; i < n; i++ {
		k := 0
		if r.Intn(4) != 0 {
			k = r.Intn(13)
		}
		m.RowPtr[i+1] = m.RowPtr[i] + k
	}
	m.GrowNNZ()
	for p := range m.ColIdx {
		m.ColIdx[p] = r.Intn(cols)
		if p > 0 && r.Intn(5) == 0 {
			m.ColIdx[p] = m.ColIdx[p-1]
		}
	}
	copy(m.Val, elemOperand(r, len(m.Val)))
	return m
}

// spmmOutputs runs every SpMM entry point on m·x: the full product and the
// listed rows, packed. Every output starts as a sentinel, so a row the kernel
// fails to store shows.
func spmmOutputs(m *CSR, x *Matrix, rows []int) [][]float64 {
	full := sentinel(m.Rows, x.Cols)
	m.MulDenseInto(full, x)
	packed := sentinel(len(rows), x.Cols)
	m.MulDenseRowsInto(packed, x, rows)
	return [][]float64{full.Data, packed.Data}
}

// requireSpMMMatchesOracle checks every entry point, on every body the host
// has (gemmBodies), against mulRowsOracle bit for bit.
func requireSpMMMatchesOracle(t *testing.T, label string, m *CSR, x *Matrix, rows []int) {
	t.Helper()
	all := make([]int, m.Rows)
	for i := range all {
		all[i] = i
	}
	full, packed := New(m.Rows, x.Cols), New(len(rows), x.Cols)
	mulRowsOracle(m, full.Data, x, all)
	mulRowsOracle(m, packed.Data, x, rows)
	want := [][]float64{full.Data, packed.Data}
	names := []string{"MulDenseInto", "MulDenseRowsInto"}
	for _, body := range gemmBodies() {
		var got [][]float64
		body.with(func() { got = spmmOutputs(m, x, rows) })
		for i := range want {
			requireSameFloats(t, fmt.Sprintf("%s %s (%s)", label, names[i], body.name), want[i], got[i])
		}
	}
}

// FuzzSpMMRowsMatchOracle pins the SpMM row kernel to the per-entry loop at
// every width 1–70 — the sixty-four-, thirty-two-, sixteen- and four-column
// blocks and every tail — over empty rows, repeated columns and ±0, NaN, ±Inf
// and subnormal weights and inputs, with a row list that repeats and
// reorders rows.
func FuzzSpMMRowsMatchOracle(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(7))
	f.Add(int64(2), uint8(1), uint8(30))
	f.Add(int64(3), uint8(40), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, xRows uint8) {
		r := rand.New(rand.NewSource(seed))
		rowsN, cols := 1+int(n)%40, 1+int(xRows)%40
		for d := 1; d <= 70; d++ {
			m := adversarialCSR(r, rowsN, cols)
			x := FromSlice(cols, d, elemOperand(r, cols*d))
			rows := make([]int, r.Intn(2*rowsN))
			for k := range rows {
				rows[k] = r.Intn(rowsN)
			}
			requireSpMMMatchesOracle(t, fmt.Sprintf("seed %d %dx%d d=%d", seed, rowsN, cols, d), m, x, rows)
		}
	})
}

// TestSpMMColumnOutOfRangePanics pins the kernels' bounds checks: a column
// index at or past the rows of the operand it names — x's, or the transposed
// product's — or negative, panics in every entry point on every body, even
// when the storage has spare capacity past its rows that an unchecked access
// would land in.
func TestSpMMColumnOutOfRangePanics(t *testing.T) {
	const xRows = 5
	for _, d := range []int{3, 4, 8, 16, 21, 32, 64, 70} {
		for _, bad := range []int{xRows, xRows + 1000, -1} {
			m := &CSR{Rows: 2, Cols: xRows, RowPtr: []int{0, 2, 3}, ColIdx: []int{0, bad, 1}, Val: []float64{1, 2, 3}}
			x := &Matrix{Rows: xRows, Cols: d, Data: make([]float64, xRows*d, (xRows+2000)*d)}
			calls := map[string]func(){
				"MulDenseInto":     func() { m.MulDenseInto(New(2, d), x) },
				"MulDenseRowsInto": func() { m.MulDenseRowsInto(New(1, d), x, []int{0}) },
				"MulTDenseInto": func() {
					dst := &Matrix{Rows: xRows, Cols: d, Data: make([]float64, xRows*d, (xRows+2000)*d)}
					m.MulTDenseInto(dst, New(2, d))
				},
			}
			for name, call := range calls {
				for _, body := range gemmBodies() {
					panicked := func() (p bool) {
						defer func() { p = recover() != nil }()
						body.with(call)
						return false
					}()
					if !panicked {
						t.Fatalf("d=%d column %d, %s (%s): no panic", d, bad, name, body.name)
					}
				}
			}
		}
	}
}

// TestSpMMEmptyOperand pins the degenerate product with nothing to read: a
// matrix with no columns times an operand with no rows is all +0, in every
// entry point and both bodies.
func TestSpMMEmptyOperand(t *testing.T) {
	m := NewCSR(3, 0, nil)
	x := New(0, 16)
	want := make([]float64, 3*16)
	requireSpMMMatchesOracle(t, "3x0 · 0x16", m, x, []int{2, 0})
	requireSameFloats(t, "3x0 · 0x16", want, m.MulDense(x).Data)
}

// reluOperand draws a rows×cols pre-activation the way a ReLU layer sees
// one: each row empty (every element ≤ 0: ±0, negatives, negative
// subnormals), all-dense (every element > 0, positive subnormals included)
// or mixed at a density drawn per row, where an element may also be ±0, a
// subnormal or, when nan is set, the CPU's default NaN.
func reluOperand(r *rand.Rand, rows, cols int, nan bool) *Matrix {
	tiny := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022 - 0x1p-1074, -(0x1p-1022 - 0x1p-1074)}
	z := New(rows, cols)
	for i := 0; i < rows; i++ {
		kind, density := r.Intn(4), r.Float64()
		for j := range z.Row(i) {
			v := math.Abs(r.NormFloat64()) * math.Pow(10, float64(r.Intn(9)-4))
			switch {
			case kind == 0: // empty
				v = -v
				if r.Intn(3) == 0 {
					v = -math.Abs(tiny[r.Intn(len(tiny))])
				}
			case kind == 1: // all-dense
				if r.Intn(5) == 0 {
					v = math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
				}
			case r.Intn(6) == 0:
				v = tiny[r.Intn(len(tiny))]
			case nan && r.Intn(40) == 0:
				v = defaultNaN()
			case r.Float64() >= density:
				v = -v
			}
			z.Data[i*cols+j] = v
		}
	}
	return z
}

// finiteOperand draws a rows×cols matrix of finite values: normal draws of
// mixed magnitude, with ±0 and subnormals mixed in.
func finiteOperand(r *rand.Rand, rows, cols int) *Matrix {
	x := New(rows, cols)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4))
		if r.Intn(8) == 0 {
			x.Data[i] = []float64{0, math.Copysign(0, -1), 0x1p-1060, -0x1p-1070}[r.Intn(4)]
		}
	}
	return x
}

// requireReLUCSR checks that a compressed ReLU output holds exactly the
// elements of z that keep selects, each row's in ascending column order,
// with want's bits, and that want is +0 everywhere else.
func requireReLUCSR(t *testing.T, label string, m *CSR, z, want *Matrix, keep func(float64) bool) {
	t.Helper()
	if m.Rows != z.Rows || m.Cols != z.Cols || len(m.RowPtr) != z.Rows+1 || m.RowPtr[0] != 0 {
		t.Fatalf("%s: CSR %dx%d with %d row pointers from %d, want %dx%d", label, m.Rows, m.Cols, len(m.RowPtr), m.RowPtr[0], z.Rows, z.Cols)
	}
	for i := 0; i < z.Rows; i++ {
		p := m.RowPtr[i]
		for j, v := range z.Row(i) {
			w := want.At(i, j)
			if !keep(v) {
				if math.Float64bits(w) != 0 {
					t.Fatalf("%s: (%d,%d) left out but the dense output holds %v", label, i, j, w)
				}
				continue
			}
			if p >= m.RowPtr[i+1] || m.ColIdx[p] != j || math.Float64bits(m.Val[p]) != math.Float64bits(w) {
				t.Fatalf("%s: row %d entry %d does not hold (%d, %v)", label, i, p-m.RowPtr[i], j, w)
			}
			p++
		}
		if p != m.RowPtr[i+1] {
			t.Fatalf("%s: row %d holds %d entries, want %d", label, i, m.RowPtr[i+1]-m.RowPtr[i], p-m.RowPtr[i])
		}
	}
	if m.NNZ() != m.RowPtr[m.Rows] || len(m.ColIdx) != m.NNZ() {
		t.Fatalf("%s: %d values and %d columns for %d entries", label, len(m.Val), len(m.ColIdx), m.RowPtr[m.Rows])
	}
}

// FuzzReLUSparseMatchesDense pins the NeuMF tower's sparse path to the dense
// core it runs in place of, on every body the host has (gemmBodies), at rows
// 0–70 and widths 1–70, over ReLU-sparse operands with empty, all-zero and
// all-dense rows, ±0, subnormals and NaN pre-activations:
//   - ReLUCSRInto(z) holds exactly the nonzeros of the dense ReLU loop's
//     output (reluIntoOracle), and ReLUMaskCSRInto(z, dy) masks dy to the
//     dense backward loop's bits (reluBackwardOracle) and holds exactly its
//     !(z ≤ 0) elements;
//   - each compressed A times finite operands equals the dense core on A's
//     dense form bit for bit: A·W through spmmRows against MatMulInto, and
//     Aᵀ·X through MulTDenseInto against MatMulATBInto.
func FuzzReLUSparseMatchesDense(f *testing.F) {
	// rows, inner width and product width: the tower's shapes, and widths
	// either side of every block edge.
	for i, c := range [][3]uint8{{64, 64, 32}, {64, 32, 64}, {9, 64, 64}, {70, 33, 65}, {0, 31, 63},
		{1, 70, 1}, {33, 32, 31}, {17, 65, 33}, {64, 16, 16}, {5, 1, 70}, {64, 63, 70}} {
		f.Add(int64(i), c[0], c[1]-1, c[2]-1)
	}
	f.Fuzz(func(t *testing.T, seed int64, rowsN, colsN, widthN uint8) {
		r := rand.New(rand.NewSource(seed))
		rows, cols, d := int(rowsN)%71, 1+int(colsN)%70, 1+int(widthN)%70
		z, dy := reluOperand(r, rows, cols, true), finiteOperand(r, rows, cols)
		w, x := finiteOperand(r, cols, d), finiteOperand(r, rows, d)
		act, masked := New(rows, cols), dy.Clone()
		reluIntoOracle(act.Data, z.Data)
		reluBackwardOracle(z.Data, masked.Data)
		want := make([]*Matrix, 4)
		for k, a := range []*Matrix{act, masked} {
			want[2*k], want[2*k+1] = New(rows, d), New(cols, d)
			MatMulInto(want[2*k], a, w)
			MatMulATBInto(want[2*k+1], a, x)
		}
		for _, body := range gemmBodies() {
			body.with(func() {
				label := fmt.Sprintf("seed %d %dx%d d=%d (%s)", seed, rows, cols, d, body.name)
				var a, g CSR
				ReLUCSRInto(&a, z)
				requireReLUCSR(t, label+" ReLUCSRInto", &a, z, act, func(v float64) bool { return v > 0 })
				got := dy.Clone()
				ReLUMaskCSRInto(&g, z, got)
				requireSameFloats(t, label+" ReLUMaskCSRInto output", masked.Data, got.Data)
				requireReLUCSR(t, label+" ReLUMaskCSRInto", &g, z, masked, func(v float64) bool { return !(v <= 0) })
				for k, m := range []*CSR{&a, &g} {
					prod, tprod := sentinel(rows, d), sentinel(cols, d)
					m.MulDenseInto(prod, w)
					m.MulTDenseInto(tprod, x)
					requireSameFloats(t, fmt.Sprintf("%s operand %d: A·W", label, k), want[2*k].Data, prod.Data)
					requireSameFloats(t, fmt.Sprintf("%s operand %d: Aᵀ·X", label, k), want[2*k+1].Data, tprod.Data)
				}
			})
		}
	})
}

// TestReLUCSRNaNAndNegativeZero pins the ReLU compressions' edge semantics
// bit for bit on every body the host has: the forward's dense form is +0 for
// NaN, ±0, negatives and −Inf, and the mask zeroes dy to +0 where z ≤ 0 (−0
// included) and keeps it where z is NaN. Each case fills a 5×5 matrix, so
// every row runs a whole block and a tail.
func TestReLUCSRNaNAndNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		z, fwd float64
		keep   bool
	}{
		{math.NaN(), 0, true},
		{negZero, 0, false},
		{0, 0, false},
		{-2, 0, false},
		{math.Inf(-1), 0, false},
		{3, 3, true},
		{math.Inf(1), math.Inf(1), true},
	} {
		z, dy, act, masked := New(5, 5), New(5, 5), New(5, 5), New(5, 5)
		for i := range z.Data {
			z.Data[i], dy.Data[i], act.Data[i] = c.z, negZero, c.fwd
			if c.keep {
				masked.Data[i] = negZero
			}
		}
		for _, body := range gemmBodies() {
			body.with(func() {
				label := fmt.Sprintf("z=%v (%s)", c.z, body.name)
				var a, g CSR
				ReLUCSRInto(&a, z)
				requireReLUCSR(t, label+" ReLUCSRInto", &a, z, act, func(v float64) bool { return v > 0 })
				got := dy.Clone()
				ReLUMaskCSRInto(&g, z, got)
				requireSameFloats(t, label+" ReLUMaskCSRInto output", masked.Data, got.Data)
				requireReLUCSR(t, label+" ReLUMaskCSRInto", &g, z, masked, func(v float64) bool { return !(v <= 0) })
			})
		}
	}
}

// sentinel returns a rows×cols matrix holding 12345.5 everywhere, so an
// element a kernel fails to store shows.
func sentinel(rows, cols int) *Matrix {
	out := New(rows, cols)
	for i := range out.Data {
		out.Data[i] = 12345.5
	}
	return out
}

// spmmBenchCSR builds the server LightGCN's adjacency at sparse-250k's shape,
// over live slots: 8192 items then 20 000 live users, each user with 3–8
// edges to items drawn Zipf(1.05), so item rows are skewed and user rows
// short; Â is symmetric, and every weight is a normal draw.
func spmmBenchCSR() *CSR {
	const items, users = 8192, 20_000
	r := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(r, 1.05, 1, items-1)
	var trips []Triplet
	for u := 0; u < users; u++ {
		for k := 3 + r.Intn(6); k > 0; k-- {
			v, w := int(zipf.Uint64()), r.NormFloat64()
			trips = append(trips, Triplet{items + u, v, w}, Triplet{v, items + u, w})
		}
	}
	return NewCSR(items+users, items+users, trips)
}

// BenchmarkSpMMRows times one propagation layer of the server LightGCN at
// sparse-250k's shape: MulDenseRowsInto over every live slot at d = 16
// (sparse-250k's width), 32 (paper-full's LightGCN server, and the NeuMF
// tower's 32-wide products) and 64 (the tower's widest), as dispatched, with
// the ZMM bodies uninstalled where the host has them ("avx2"), on the pure Go
// bodies, and through the per-entry Axpy loop the kernel replaced. 0
// allocs/op.
func BenchmarkSpMMRows(b *testing.B) {
	m := spmmBenchCSR()
	r := rand.New(rand.NewSource(6))
	rows := make([]int, m.Rows)
	for i := range rows {
		rows[i] = i
	}
	for _, d := range []int{16, 32, 64} {
		x := New(m.Rows, d)
		for i := range x.Data {
			x.Data[i] = r.NormFloat64()
		}
		dst := New(m.Rows, d)
		run := func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				m.MulDenseRowsInto(dst, x, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/entry")
		}
		b.Run(fmt.Sprintf("dispatch/d=%d", d), run)
		if spmmWideKernel != nil {
			b.Run(fmt.Sprintf("avx2/d=%d", d), func(b *testing.B) { withoutZMM(func() { run(b) }) })
		}
		b.Run(fmt.Sprintf("go/d=%d", d), func(b *testing.B) { withGoBodies(func() { run(b) }) })
		b.Run(fmt.Sprintf("oracle/d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				mulRowsOracle(m, dst.Data, x, rows)
			}
		})
	}
}
