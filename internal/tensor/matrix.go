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
// Two kernel families have an assembly form on amd64, installed at init
// (avx2_amd64.go) when CPUID and XGETBV report AVX2 with OS-saved YMM state:
// the full 4×8 tile of the dense GEMM core (densegemm.go, gemm_amd64.s), which
// the gathered scoring GEMMs (gemm.go) run on too, and the elementwise
// kernels — the Adam update, ReLU and its backward mask, AddVec and Axpy
// (elem.go, elem_amd64.s). Every other platform and CPU, every edge tile and
// every tail shorter than four lanes runs the pure Go body, which computes the
// same bits. All other kernels — the gathered pair dots (gemm.go), the sparse
// products (sparse.go), Dot — are Go only.
package tensor

import (
	"fmt"
	"math"
)

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

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element by a in place and returns m.
func (m *Matrix) Scale(a float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// AddInPlace adds b element-wise into m and returns m.
func (m *Matrix) AddInPlace(b *Matrix) *Matrix {
	m.sameShape(b, "AddInPlace")
	for i, v := range b.Data {
		m.Data[i] += v
	}
	return m
}

// AddScaled adds a*b element-wise into m and returns m.
func (m *Matrix) AddScaled(a float64, b *Matrix) *Matrix {
	m.sameShape(b, "AddScaled")
	for i, v := range b.Data {
		m.Data[i] += a * v
	}
	return m
}

// Hadamard returns the element-wise product a ⊙ b as a new matrix.
func Hadamard(a, b *Matrix) *Matrix {
	a.sameShape(b, "Hadamard")
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
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

// TransposeInto writes mᵀ into dst, reusing dst's storage.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto %dx%d = %dx%d ᵀ", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		drow := dst.Row(j)
		for i := range drow {
			drow[i] = m.Data[i*m.Cols+j]
		}
	}
}

// Norm returns the Frobenius norm of m.
func (m *Matrix) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Apply replaces each element x with f(x) in place and returns m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
	return m
}

// ConcatCols returns [a | b] — the horizontal concatenation of a and b.
func ConcatCols(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: ConcatCols %dx%d | %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i)[:a.Cols], a.Row(i))
		copy(out.Row(i)[a.Cols:], b.Row(i))
	}
	return out
}

func (m *Matrix) sameShape(b *Matrix, op string) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}
