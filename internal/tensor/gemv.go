package tensor

// This file holds the matrix–vector kernels behind the batched scoring engine
// (models.BlockScorer): fused row-gather GEMV variants that score one user's
// whole candidate list against an embedding matrix. Every kernel
// accumulates each output element with Dot's k-ascending order, so a batched
// score is bitwise-identical to the per-item dot loop it replaces.

import "fmt"

// GatherMulVecInto computes dst[i] = m.Row(rows[i]+rowOffset)·x — a GEMV over
// a gathered row subset, fusing the row gather into the product so no
// intermediate matrix is materialised. dst must have length len(rows).
func GatherMulVecInto(dst []float64, m *Matrix, rows []int, rowOffset int, x []float64) {
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("tensor: GatherMulVecInto dst[%d] for %d rows", len(dst), len(rows)))
	}
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: GatherMulVecInto x[%d], m %dx%d", len(x), m.Rows, m.Cols))
	}
	for i, r := range rows {
		dst[i] = Dot(m.Row(r+rowOffset), x)
	}
}

// GatherMulVecAddInto is GatherMulVecInto accumulating into dst:
// dst[i] += m.Row(rows[i]+rowOffset)·x. Used by readouts that sum dot
// products over several embedding matrices (NGCF's layer concatenation).
func GatherMulVecAddInto(dst []float64, m *Matrix, rows []int, rowOffset int, x []float64) {
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("tensor: GatherMulVecAddInto dst[%d] for %d rows", len(dst), len(rows)))
	}
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: GatherMulVecAddInto x[%d], m %dx%d", len(x), m.Rows, m.Cols))
	}
	for i, r := range rows {
		dst[i] += Dot(m.Row(r+rowOffset), x)
	}
}

// FirstRows returns a view of m's first n rows sharing m's storage — the
// chunk-sized window batched scoring slides over a preallocated workspace.
func (m *Matrix) FirstRows(n int) *Matrix {
	if n < 0 || n > m.Rows {
		panic(fmt.Sprintf("tensor: FirstRows(%d) of %dx%d", n, m.Rows, m.Cols))
	}
	return &Matrix{Rows: n, Cols: m.Cols, Data: m.Data[:n*m.Cols]}
}
