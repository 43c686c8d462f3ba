package tensor

// The per-entry loop the SpMM row kernel (sparse.go's spmmRows) replaced, kept
// verbatim as its reference, and the tests that pin every SpMM entry point,
// with the assembly body and with the pure Go one, to it bit for bit.

import (
	"fmt"
	"math/rand"
	"testing"
)

// mulRowsOracle is the loop CSR.mulRows ran: clear the row, then one Axpy per
// stored entry (MulDenseInto and MulDenseIntoPar ran the same loop per row).
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

// spmmOutputs runs every SpMM entry point on m·x: the full product serially
// and on two workers, and the listed rows, packed. Every output starts as a
// sentinel, so a row the kernel fails to
// store shows.
func spmmOutputs(m *CSR, x *Matrix, rows []int) [][]float64 {
	fill := func(rows, cols int) *Matrix {
		out := New(rows, cols)
		for i := range out.Data {
			out.Data[i] = 12345.5
		}
		return out
	}
	full, fullPar := fill(m.Rows, x.Cols), fill(m.Rows, x.Cols)
	m.MulDenseInto(full, x)
	m.MulDenseIntoPar(fullPar, x, 2)
	packed := fill(len(rows), x.Cols)
	m.MulDenseRowsInto(packed, x, rows)
	return [][]float64{full.Data, fullPar.Data, packed.Data}
}

// requireSpMMMatchesOracle checks every entry point, as dispatched and on the
// pure Go bodies, against mulRowsOracle bit for bit.
func requireSpMMMatchesOracle(t *testing.T, label string, m *CSR, x *Matrix, rows []int) {
	t.Helper()
	all := make([]int, m.Rows)
	for i := range all {
		all[i] = i
	}
	full, packed := New(m.Rows, x.Cols), New(len(rows), x.Cols)
	mulRowsOracle(m, full.Data, x, all)
	mulRowsOracle(m, packed.Data, x, rows)
	want := [][]float64{full.Data, full.Data, packed.Data}
	names := []string{"MulDenseInto", "MulDenseIntoPar", "MulDenseRowsInto"}
	got := spmmOutputs(m, x, rows)
	var goBody [][]float64
	withGoBodies(func() { goBody = spmmOutputs(m, x, rows) })
	for i := range want {
		requireSameFloats(t, fmt.Sprintf("%s %s", label, names[i]), want[i], got[i])
		requireSameFloats(t, fmt.Sprintf("%s %s (Go body)", label, names[i]), want[i], goBody[i])
	}
}

// FuzzSpMMRowsMatchOracle pins the SpMM row kernel to the per-entry loop at
// every width 1–40 — the sixteen- and four-column blocks and every tail —
// over empty rows, repeated columns and ±0, NaN, ±Inf and subnormal weights
// and inputs, with a row list that repeats and reorders rows.
func FuzzSpMMRowsMatchOracle(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(7))
	f.Add(int64(2), uint8(1), uint8(30))
	f.Add(int64(3), uint8(40), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, xRows uint8) {
		r := rand.New(rand.NewSource(seed))
		rowsN, cols := 1+int(n)%40, 1+int(xRows)%40
		for d := 1; d <= 40; d++ {
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

// TestSpMMColumnOutOfRangePanics pins the kernel's bounds check: a column
// index at or past x.Rows, or negative, panics in every entry point and both
// bodies, even when x's storage has spare capacity past its rows that an
// unchecked read would land in. Two rows make one parRowChunk, so the Par
// form runs inline and its panic reaches recover.
func TestSpMMColumnOutOfRangePanics(t *testing.T) {
	const xRows = 5
	for _, d := range []int{3, 4, 16, 21} {
		for _, bad := range []int{xRows, xRows + 1000, -1} {
			m := &CSR{Rows: 2, Cols: xRows, RowPtr: []int{0, 2, 3}, ColIdx: []int{0, bad, 1}, Val: []float64{1, 2, 3}}
			x := &Matrix{Rows: xRows, Cols: d, Data: make([]float64, xRows*d, (xRows+2000)*d)}
			calls := map[string]func(){
				"MulDenseInto":     func() { m.MulDenseInto(New(2, d), x) },
				"MulDenseIntoPar":  func() { m.MulDenseIntoPar(New(2, d), x, 2) },
				"MulDenseRowsInto": func() { m.MulDenseRowsInto(New(1, d), x, []int{0}) },
			}
			for name, call := range calls {
				for _, body := range []string{"dispatch", "go"} {
					panicked := func() (p bool) {
						defer func() { p = recover() != nil }()
						if body == "go" {
							withGoBodies(call)
						} else {
							call()
						}
						return false
					}()
					if !panicked {
						t.Fatalf("d=%d column %d, %s (%s): no panic", d, bad, name, body)
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
// sparse-250k's shape (d = 16): MulDenseRowsInto over every live slot, as
// dispatched, on the pure Go bodies, and through the per-entry Axpy loop the
// kernel replaced. 0 allocs/op.
func BenchmarkSpMMRows(b *testing.B) {
	m := spmmBenchCSR()
	r := rand.New(rand.NewSource(6))
	x := New(m.Rows, 16)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	rows := make([]int, m.Rows)
	for i := range rows {
		rows[i] = i
	}
	dst := New(m.Rows, 16)
	run := func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			m.MulDenseRowsInto(dst, x, rows)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/entry")
	}
	b.Run("dispatch/d=16", run)
	b.Run("go/d=16", func(b *testing.B) { withGoBodies(func() { run(b) }) })
	b.Run("oracle/d=16", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			mulRowsOracle(m, dst.Data, x, rows)
		}
	})
}
