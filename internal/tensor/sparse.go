package tensor

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Triplet is one non-zero entry of a sparse matrix under construction.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix. It is immutable once filled; the
// graph recommenders take one normalized adjacency per round and reuse it for
// every propagation. Construction is either NewCSR (from triplets) or the
// in-place Reshape/GrowNNZ assembly path used by engines that already hold
// the matrix row-by-row (the graph engine, graph.Incremental).
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len NNZ
	Val        []float64 // len NNZ
}

// NewCSR builds a CSR matrix from triplets: entries are ordered by (row,
// column) with a stable sort, so duplicate (row, col) entries keep their input
// order, and each duplicate run is summed left to right. The triplet slice is
// not retained.
func NewCSR(rows, cols int, entries []Triplet) *CSR {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for _, t := range entries {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("tensor: CSR entry (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols))
		}
	}
	sorted := slices.Clone(entries)
	slices.SortStableFunc(sorted, func(a, b Triplet) int {
		return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
	})
	for i := 0; i < len(sorted); {
		t := sorted[i]
		j := i + 1
		for ; j < len(sorted) && sorted[j].Row == t.Row && sorted[j].Col == t.Col; j++ {
			t.Val += sorted[j].Val
		}
		m.ColIdx = append(m.ColIdx, t.Col)
		m.Val = append(m.Val, t.Val)
		m.RowPtr[t.Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// Reshape prepares m for in-place assembly as a rows×cols matrix: RowPtr is
// resized to rows+1 (reusing its backing array when it has capacity) and left
// with unspecified contents. The caller fills RowPtr as a prefix sum over row
// lengths, calls GrowNNZ, then fills ColIdx/Val. This is the buffer-reuse
// entry point for engines that assemble a CSR every round without paying
// NewCSR's triplet copy and sort.
func (m *CSR) Reshape(rows, cols int) {
	m.Rows, m.Cols = rows, cols
	if cap(m.RowPtr) < rows+1 {
		m.RowPtr = make([]int, rows+1)
	} else {
		m.RowPtr = m.RowPtr[:rows+1]
	}
}

// GrowNNZ sizes ColIdx and Val for the entry count a filled RowPtr announces
// (RowPtr[Rows]), reusing backing arrays when they have capacity. Contents
// are unspecified; the caller overwrites every entry.
func (m *CSR) GrowNNZ() { m.sizeNNZ(m.RowPtr[m.Rows]) }

// sizeNNZ sizes ColIdx and Val for nnz entries, reusing backing arrays when
// they have capacity.
func (m *CSR) sizeNNZ(nnz int) {
	if cap(m.ColIdx) < nnz {
		m.ColIdx = make([]int, nnz)
	} else {
		m.ColIdx = m.ColIdx[:nnz]
	}
	if cap(m.Val) < nnz {
		m.Val = make([]float64, nnz)
	} else {
		m.Val = m.Val[:nnz]
	}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// MulDense returns m·x as a new dense matrix (m is r×c, x is c×n).
func (m *CSR) MulDense(x *Matrix) *Matrix {
	out := New(m.Rows, x.Cols)
	m.MulDenseInto(out, x)
	return out
}

// MulDenseInto computes dst = m·x, reusing dst's storage.
func (m *CSR) MulDenseInto(dst, x *Matrix) {
	if m.Cols != x.Rows || dst.Rows != m.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: CSR MulDenseInto %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, m.Rows, m.Cols, x.Rows, x.Cols))
	}
	m.spmmRows(dst.Data, x, nil, 0, m.Rows)
}

// MulDenseRowsInto computes the listed rows of m·x, packed: dst.Row(k) =
// Σ_p m.Val[p]·x.Row(m.ColIdx[p]) over row rows[k]'s stored entries,
// accumulated in their order, so each is bitwise-identical to what
// MulDenseInto produces for that row. dst has one row per listed row. It is
// the SpMM of callers that store only the rows they read (the LightGCN's
// live slots, whose adjacency columns name slots of x): cost is
// O(len(rows) + their entries), not O(m.Rows).
func (m *CSR) MulDenseRowsInto(dst, x *Matrix, rows []int) {
	m.checkRows(dst, x, rows)
	m.spmmRows(dst.Data, x, rows, 0, len(rows))
}

// checkRows panics unless dst fits the listed rows of m·x, packed.
func (m *CSR) checkRows(dst, x *Matrix, rows []int) {
	if x.Rows < m.Cols || dst.Rows != len(rows) || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: CSR MulDenseRowsInto %dx%d = %d rows of %dx%d · %dx%d",
			dst.Rows, dst.Cols, len(rows), m.Rows, m.Cols, x.Rows, x.Cols))
	}
}

// The sparse kernels avx2_amd64.go's init installs; nil selects the pure Go
// bodies. spmmKernel (AVX2) and spmmWideKernel (AVX-512) compute the first
// cols columns of spmmRows's rows, cols a multiple of four and of 32, and
// return n, or the position of the first row whose index, entry range or a
// column index is out of range. spmmTKernel (AVX2) and spmmTWideKernel
// (AVX-512) are MulTDenseInto's, cols a multiple of four and of 16, and
// check the same way. reluCSRKernel and reluMaskCSRKernel (AVX2) and their
// Wide forms (AVX-512) are ReLUCSRInto's and ReLUMaskCSRInto's bodies, the
// Wide form run where it is installed.
var (
	spmmKernel, spmmWideKernel               spmmFunc
	spmmTKernel, spmmTWideKernel             spmmTFunc
	reluCSRKernel, reluCSRWideKernel         func(val *float64, col, rowPtr *int, z *float64, rows, cols int)
	reluMaskCSRKernel, reluMaskCSRWideKernel func(val *float64, col, rowPtr *int, z, dy *float64, rows, cols int)
)

type (
	spmmFunc  = func(dst, x *float64, ld, xrows int, rowPtr, rows *int, n, mrows int, col *int, val *float64, nnz, cols int) int
	spmmTFunc = func(dst, x *float64, ld, drows int, rowPtr *int, n int, col *int, val *float64, nnz, cols int) int
)

// compressPerm is the AVX2 compressions' table: entry m moves the lanes set
// in the four-bit mask m to the front of a four-lane block, in order, as the
// dword indices VPERMPS takes (two per float64 or int lane); the lanes after
// them are don't-cares.
var compressPerm = func() (t [16][8]uint32) {
	for m := range t {
		q := 0
		for l := uint32(0); l < 4; l++ {
			if m&(1<<l) != 0 {
				t[m][2*q], t[m][2*q+1] = 2*l, 2*l+1
				q++
			}
		}
	}
	return t
}()

// spmmRows is the row function every SpMM entry point runs. It writes n rows
// of m·x, packed, into dst: the k-th is product row rows[k], or row lo+k when
// rows is nil. Each element is one sum over the row's entries in ascending
// order from +0, the multiply and the add rounded separately in Axpy's
// operand order (elem.go's contract): the bits of clearing the row and
// running Axpy once per entry, the loop this replaced (sparse_oracle_test.go).
// Each row's sums stay in registers across all of its entries and the row is
// stored once: on amd64 CPUs with AVX-512 sixty-four and then thirty-two
// columns at a time over the first d − d mod 32, and with AVX2 sixteen
// columns at a time and then four over what remains of the first d − d mod 4,
// every row in one call per block width (sparse_amd64.s, elem_amd64.s); the
// pure Go body runs the last d mod 4 columns and every other target. A row
// index, row range or column index out of range panics before anything is
// read through it.
func (m *CSR) spmmRows(dst []float64, x *Matrix, rows []int, lo, n int) {
	d := x.Cols
	dst = dst[:n*d]
	if len(x.Data) < x.Rows*d {
		panic(fmt.Sprintf("tensor: SpMM operand holds %d values for %dx%d", len(x.Data), x.Rows, d))
	}
	j, nnz := 0, min(len(m.ColIdx), len(m.Val))
	if n > 0 && nnz > 0 && x.Rows > 0 {
		rowPtr, rp, mrows := &m.RowPtr[lo], (*int)(nil), n
		if rows != nil {
			rowPtr, rp, mrows = &m.RowPtr[0], &rows[0], m.Rows
		}
		_ = m.RowPtr[lo+mrows] // the last row pointer a kernel may read
		run := func(kernel spmmFunc, to int) {
			if kernel == nil || to <= j {
				return
			}
			if k := kernel(&dst[j], &x.Data[j], d, x.Rows, rowPtr, rp, n, mrows, &m.ColIdx[0], &m.Val[0], nnz, to-j); k < n {
				// The Go body's checks name what failed.
				m.spmmRowGo(dst[k*d:(k+1)*d], x, spmmRowIndex(rows, lo, k), 0)
				panic("tensor: SpMM kernel rejected a row the Go body accepts")
			}
			j = to
		}
		run(spmmWideKernel, d&^31)
		run(spmmKernel, d&^3)
	}
	if j == d {
		return
	}
	for k := 0; k < n; k++ {
		m.spmmRowGo(dst[k*d:(k+1)*d], x, spmmRowIndex(rows, lo, k), j)
	}
}

// spmmRowIndex is the product row spmmRows writes at position k.
func spmmRowIndex(rows []int, lo, k int) int {
	if rows != nil {
		return rows[k]
	}
	return lo + k
}

// spmmRowGo is spmmRows's pure Go body: row i of m·x from column j on, into
// dst, four columns at a time in four scalar sums, then one at a time. The
// float64 conversions forbid the compiler from fusing a multiply into the add
// that follows it.
func (m *CSR) spmmRowGo(dst []float64, x *Matrix, i, j int) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	col, val := m.ColIdx[lo:hi], m.Val[lo:hi]
	d, rows := x.Cols, x.Rows
	for ; j+4 <= d; j += 4 {
		var s0, s1, s2, s3 float64
		for p, c := range col {
			if uint(c) >= uint(rows) {
				spmmColumnPanic(c, rows)
			}
			a, xr := val[p], x.Data[c*d+j:c*d+j+4]
			s0 += float64(a * xr[0])
			s1 += float64(a * xr[1])
			s2 += float64(a * xr[2])
			s3 += float64(a * xr[3])
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < d; j++ {
		var s float64
		for p, c := range col {
			if uint(c) >= uint(rows) {
				spmmColumnPanic(c, rows)
			}
			s += float64(val[p] * x.Data[c*d+j])
		}
		dst[j] = s
	}
}

func spmmColumnPanic(c, rows int) {
	panic(fmt.Sprintf("tensor: CSR column %d outside the %d rows of the dense operand", c, rows))
}

// MulTDenseInto computes dst = mᵀ·x (m is r×c, x is r×n, dst c×n), reusing
// dst's storage, in one pass over m's rows, so no sparsity pattern is ever
// transposed: dst is cleared, then each stored entry (k, i, a), rows ascending
// and a row's entries in order, adds a·x.Row(k) into dst.Row(i) with Axpy's
// separately rounded multiply and add. Element (i, j) is thus one sum from +0
// over the entries of column i, rows ascending — for finite x the bits of
// MatMulATBInto on m's dense form, which multiplies the zeros out. Row k of x
// stays in registers while its entries are added: on amd64 CPUs with AVX-512
// sixty-four, then thirty-two, then sixteen columns at a time over the first
// d − d mod 16, and with AVX2 sixteen and then four over what remains of the
// first d − d mod 4 (sparse_amd64.s); the pure Go body runs the last d mod 4
// columns and every other target. A row range or column index out of range
// panics before anything is written through it.
func (m *CSR) MulTDenseInto(dst, x *Matrix) {
	if m.Rows != x.Rows || dst.Rows != m.Cols || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: CSR MulTDenseInto %dx%d = %dx%d ᵀ· %dx%d",
			dst.Rows, dst.Cols, m.Rows, m.Cols, x.Rows, x.Cols))
	}
	d := x.Cols
	out := dst.Data[:m.Cols*d]
	if len(x.Data) < x.Rows*d {
		panic(fmt.Sprintf("tensor: SpMM operand holds %d values for %dx%d", len(x.Data), x.Rows, d))
	}
	clear(out)
	j, nnz := 0, min(len(m.ColIdx), len(m.Val))
	if m.Rows > 0 && nnz > 0 && len(out) > 0 {
		_ = m.RowPtr[m.Rows] // the last row pointer a kernel may read
		run := func(kernel spmmTFunc, to int) {
			if kernel == nil || to <= j {
				return
			}
			if k := kernel(&out[j], &x.Data[j], d, m.Cols, &m.RowPtr[0], m.Rows, &m.ColIdx[0], &m.Val[0], nnz, to-j); k < m.Rows {
				m.spmmTRowGo(out, x, k, 0)
				panic("tensor: transposed SpMM kernel rejected a row the Go body accepts")
			}
			j = to
		}
		run(spmmTWideKernel, d&^15)
		run(spmmTKernel, d&^3)
	}
	if j == d {
		return
	}
	for k := 0; k < m.Rows; k++ {
		m.spmmTRowGo(out, x, k, j)
	}
}

// spmmTRowGo is MulTDenseInto's pure Go body: it adds row k's entries, times
// x's row k from column j on, into dst's rows. The float64 conversion forbids
// the compiler from fusing a multiply into the add that follows it.
func (m *CSR) spmmTRowGo(dst []float64, x *Matrix, k, j int) {
	lo, hi := m.RowPtr[k], m.RowPtr[k+1]
	col, val := m.ColIdx[lo:hi], m.Val[lo:hi]
	d := x.Cols
	xr := x.Data[k*d+j : (k+1)*d]
	for p, i := range col {
		if uint(i) >= uint(m.Cols) {
			panic(fmt.Sprintf("tensor: CSR column %d outside the %d rows of the transposed product", i, m.Cols))
		}
		a, dr := val[p], dst[i*d+j:(i+1)*d]
		dr = dr[:len(xr)]
		for t, v := range xr {
			dr[t] += float64(a * v)
		}
	}
}

// ReLUCSRInto writes max(0, z) into dst as a CSR matrix of z's shape holding
// only the elements with z > 0, each row's in column order: the nonzeros of
// ReLUVec's output, every other element of which is +0 (−0, negatives and NaN
// included). It is the activation a ReLU layer hands the next layer's
// product, which then runs on the nonzeros alone. On amd64 CPUs each row is
// compressed under the z > 0 mask eight elements at a time with AVX-512, or
// four at a time with AVX2 (sparse_amd64.s); the pure Go body writes every
// element and moves past it only when it is kept. dst's arrays are reused
// once they hold z.Rows·z.Cols + 3 entries, the kernels' room to store a
// whole block.
func ReLUCSRInto(dst *CSR, z *Matrix) {
	rows, cols := z.Rows, z.Cols
	zd := z.Data[:rows*cols]
	dst.Reshape(rows, cols)
	dst.sizeNNZ(len(zd) + 3)
	dst.RowPtr[0] = 0
	kernel := reluCSRKernel
	if reluCSRWideKernel != nil {
		kernel = reluCSRWideKernel
	}
	if kernel != nil && len(zd) > 0 {
		kernel(&dst.Val[0], &dst.ColIdx[0], &dst.RowPtr[0], &zd[0], rows, cols)
	} else {
		p := 0
		for i := 0; i < rows; i++ {
			for j, v := range zd[i*cols : (i+1)*cols] {
				dst.ColIdx[p], dst.Val[p] = j, v
				if v > 0 { // compiled to a conditional move
					p++
				}
			}
			dst.RowPtr[i+1] = p
		}
	}
	dst.sizeNNZ(dst.RowPtr[rows])
}

// ReLUMaskCSRInto is ReLUBackwardVec(z.Data, dy.Data) — dy becomes +0 where
// z ≤ 0 and is kept elsewhere, a NaN pre-activation included — that also
// writes the result into dst as a CSR matrix of dy's shape holding the kept
// elements, dy's values (±0 included), each row's in column order. On amd64
// CPUs each row is masked and compressed under !(z ≤ 0) as ReLUCSRInto
// compresses, and dst's arrays are reused the same way.
func ReLUMaskCSRInto(dst *CSR, z, dy *Matrix) {
	if dy.Rows != z.Rows || dy.Cols != z.Cols {
		panic(fmt.Sprintf("tensor: ReLUMaskCSRInto dy %dx%d for %dx%d", dy.Rows, dy.Cols, z.Rows, z.Cols))
	}
	rows, cols := z.Rows, z.Cols
	zd, g := z.Data[:rows*cols], dy.Data[:rows*cols]
	dst.Reshape(rows, cols)
	dst.sizeNNZ(len(zd) + 3)
	dst.RowPtr[0] = 0
	kernel := reluMaskCSRKernel
	if reluMaskCSRWideKernel != nil {
		kernel = reluMaskCSRWideKernel
	}
	if kernel != nil && len(zd) > 0 {
		kernel(&dst.Val[0], &dst.ColIdx[0], &dst.RowPtr[0], &zd[0], &g[0], rows, cols)
	} else {
		// Branch-free: the kept bits are ANDed with all ones or all zeros.
		p := 0
		for i := 0; i < rows; i++ {
			gr := g[i*cols : (i+1)*cols]
			for j, v := range zd[i*cols : (i+1)*cols] {
				keep := 0
				if !(v <= 0) {
					keep = 1
				}
				gr[j] = math.Float64frombits(math.Float64bits(gr[j]) & -uint64(keep))
				dst.ColIdx[p], dst.Val[p] = j, gr[j]
				p += keep
			}
			dst.RowPtr[i+1] = p
		}
	}
	dst.sizeNNZ(dst.RowPtr[rows])
}

// At returns the value at (i, j), 0 if not stored. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	if idx, ok := slices.BinarySearch(m.ColIdx[lo:hi], j); ok {
		return m.Val[lo+idx]
	}
	return 0
}

// Dense expands the sparse matrix into a dense one (tests and debugging).
func (m *CSR) Dense() *Matrix {
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out.Set(i, m.ColIdx[p], m.Val[p])
		}
	}
	return out
}
