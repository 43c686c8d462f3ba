// Package tensor provides the dense and sparse linear algebra used by every
// model in the repository. Matrices are row-major float64 slices; the sparse
// type is a CSR matrix specialised for the symmetric normalized adjacencies
// used by the graph recommenders.
//
// The package is deliberately small: it implements exactly the operations the
// hand-derived backpropagation in internal/models needs, with shape checks
// that panic on programmer error (mismatched dimensions are bugs, not runtime
// conditions).
//
// Three kernel families have an assembly form on amd64, installed at init
// (avx2_amd64.go) when CPUID and XGETBV report AVX2 with OS-saved YMM state:
// the dense GEMM core's full 4×8 tile (densegemm.go, gemm_amd64.s) and, where
// they also report AVX512F with OS-saved opmask and ZMM state, its full 8×8
// AVX-512 tile beside it, the tiles the gathered scoring GEMMs (gemm.go) run
// on too; the elementwise kernels — the Adam update, ReLU and its backward mask,
// AddVec and Axpy (elem.go, elem_amd64.s); and the SpMM row kernel behind
// every sparse product (sparse.go, elem_amd64.s). Every other platform and
// CPU, every edge tile and every tail shorter than four lanes runs the pure
// Go body, which computes the same bits. All other kernels — the gathered
// pair dots (gemm.go), Dot — are Go only.
package tensor

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major, length rows*cols) in a Matrix without
// copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// AddInPlace adds b element-wise into m and returns m.
func (m *Matrix) AddInPlace(b *Matrix) *Matrix {
	m.sameShape(b, "AddInPlace")
	for i, v := range b.Data {
		m.Data[i] += v
	}
	return m
}

// HadamardInto computes dst = a ⊙ b, reusing dst's storage.
func HadamardInto(dst, a, b *Matrix) {
	a.sameShape(b, "HadamardInto")
	dst.sameShape(a, "HadamardInto dst")
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	m.TransposeInto(out)
	return out
}

// transposeKernel, when non-nil, is TransposeInto's AVX2 body for shapes
// whose sides are multiples of four (avx2_amd64.go).
var transposeKernel func(dst, src *float64, rows, cols int)

// TransposeInto writes mᵀ into dst, reusing dst's storage: on amd64 CPUs with
// AVX2 4×4 blocks at a time in registers when both sides are multiples of
// four (sparse_amd64.s), else element by element.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto %dx%d = %dx%d ᵀ", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	if n := m.Rows * m.Cols; transposeKernel != nil && m.Rows%4 == 0 && m.Cols%4 == 0 && n > 0 {
		transposeKernel(&dst.Data[:n][0], &m.Data[:n][0], m.Rows, m.Cols)
		return
	}
	for j := 0; j < m.Cols; j++ {
		drow := dst.Row(j)
		for i := range drow {
			drow[i] = m.Data[i*m.Cols+j]
		}
	}
}

func (m *Matrix) sameShape(b *Matrix, op string) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}
