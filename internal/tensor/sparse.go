package tensor

import (
	"fmt"
	"sort"

	"ptffedrec/internal/par"
)

// Triplet is one non-zero entry of a sparse matrix under construction.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix. It is immutable once filled; the
// graph recommenders take one normalized adjacency per round and reuse it for
// every propagation. Construction is either NewCSRPar (from triplets) or the
// in-place Reshape/GrowNNZ assembly path used by engines that already hold
// the matrix row-by-row (the incremental graph engine).
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len NNZ
	Val        []float64 // len NNZ
}

// NewCSR builds a CSR matrix from triplets. Duplicate (row, col) entries are
// summed in input order. The triplet slice is not retained.
func NewCSR(rows, cols int, entries []Triplet) *CSR {
	return NewCSRPar(rows, cols, entries, 1)
}

// csrScatterChunk is the input-range granularity of NewCSRPar's counting and
// scatter passes, and the row-range granularity of its per-row finalisation.
// A scheduling knob only: the construction is defined so the output never
// depends on how the passes are partitioned.
const csrScatterChunk = 4096

// csrMaxRanges caps the number of scatter ranges: each range carries a
// private rows-sized histogram, so unbounded ranges would make the counting
// pass O(nnz/csrScatterChunk × rows) memory on large graphs. Like the chunk
// size, it only shapes the partitioning, never the output.
const csrMaxRanges = 64

// colValSorter stable-sorts one row's scattered (column, value) pairs by
// column, preserving input order among equal columns.
type colValSorter struct {
	col []int
	val []float64
}

func (s colValSorter) Len() int           { return len(s.col) }
func (s colValSorter) Less(i, j int) bool { return s.col[i] < s.col[j] }
func (s colValSorter) Swap(i, j int) {
	s.col[i], s.col[j] = s.col[j], s.col[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// NewCSRPar builds the same matrix as NewCSR, sharding the row bucketing over
// workers. The output is independent of the worker count by construction:
// entries land in their row's bucket in input order (per-range scatter offsets
// are prefix sums taken in range order), each bucket is then stable-sorted by
// column, and duplicates are summed in that order — all quantities the
// partitioning cannot change.
func NewCSRPar(rows, cols int, entries []Triplet, workers int) *CSR {
	n := len(entries)
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	if n == 0 {
		return m
	}
	if workers < 1 {
		workers = 1
	}
	rangeSize := csrScatterChunk
	if n > csrScatterChunk*csrMaxRanges {
		rangeSize = (n + csrMaxRanges - 1) / csrMaxRanges
	}
	nRanges := (n + rangeSize - 1) / rangeSize
	if workers > nRanges {
		workers = nRanges
	}

	// Pass 1: per-range row histograms (and bounds validation). Counts are
	// integers, so summing them later is exact regardless of partitioning.
	counts := make([][]int, nRanges)
	bad := make([]int, nRanges)
	par.For(nRanges, workers, func(c int) {
		lo := c * rangeSize
		hi := lo + rangeSize
		if hi > n {
			hi = n
		}
		bad[c] = -1
		cnt := make([]int, rows)
		for i := lo; i < hi; i++ {
			t := entries[i]
			if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
				if bad[c] < 0 {
					bad[c] = i
				}
				continue
			}
			cnt[t.Row]++
		}
		counts[c] = cnt
	})
	for _, b := range bad {
		if b >= 0 {
			t := entries[b]
			panic(fmt.Sprintf("tensor: CSR entry (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols))
		}
	}

	// Row bucket offsets, then per-range write cursors inside each bucket:
	// range c's entries for row r start after every earlier range's.
	rowStart := make([]int, rows+1)
	for r := 0; r < rows; r++ {
		acc := rowStart[r]
		for c := 0; c < nRanges; c++ {
			k := counts[c][r]
			counts[c][r] = acc
			acc += k
		}
		rowStart[r+1] = acc
	}

	// Pass 2: scatter into row buckets. Each range owns disjoint cursor state,
	// and within a bucket entries end up in global input order.
	bufCol := make([]int, n)
	bufVal := make([]float64, n)
	par.For(nRanges, workers, func(c int) {
		lo := c * rangeSize
		hi := lo + rangeSize
		if hi > n {
			hi = n
		}
		cur := counts[c]
		for i := lo; i < hi; i++ {
			t := entries[i]
			dst := cur[t.Row]
			cur[t.Row]++
			bufCol[dst] = t.Col
			bufVal[dst] = t.Val
		}
	})

	// Pass 3: per-row stable column sort + duplicate counting. Rows are
	// independent, so any row partitioning yields the same result.
	uniq := make([]int, rows)
	par.ForChunks(rows, csrScatterChunk, workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s, e := rowStart[r], rowStart[r+1]
			if s == e {
				continue
			}
			sort.Stable(colValSorter{col: bufCol[s:e], val: bufVal[s:e]})
			u := 1
			for i := s + 1; i < e; i++ {
				if bufCol[i] != bufCol[i-1] {
					u++
				}
			}
			uniq[r] = u
		}
	})
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] = m.RowPtr[r] + uniq[r]
	}

	// Pass 4: compact duplicate runs (summed in the stable order) into the
	// final arrays.
	nnz := m.RowPtr[rows]
	m.ColIdx = make([]int, nnz)
	m.Val = make([]float64, nnz)
	par.ForChunks(rows, csrScatterChunk, workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s, e := rowStart[r], rowStart[r+1]
			out := m.RowPtr[r]
			for i := s; i < e; {
				j := i + 1
				v := bufVal[i]
				for j < e && bufCol[j] == bufCol[i] {
					v += bufVal[j]
					j++
				}
				m.ColIdx[out] = bufCol[i]
				m.Val[out] = v
				out++
				i = j
			}
		}
	})
	return m
}

// Reshape prepares m for in-place assembly as a rows×cols matrix: RowPtr is
// resized to rows+1 (reusing its backing array when it has capacity) and left
// with unspecified contents. The caller fills RowPtr as a prefix sum over row
// lengths, calls GrowNNZ, then fills ColIdx/Val. This is the buffer-reuse
// entry point for engines that assemble a CSR every round without paying
// NewCSRPar's scatter passes and their per-range rows-sized histograms.
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
func (m *CSR) GrowNNZ() {
	nnz := m.RowPtr[m.Rows]
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
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		drow := dst.Row(i)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			Axpy(m.Val[p], x.Row(m.ColIdx[p]), drow)
		}
	}
}

// MulDenseRowsInto computes the listed rows of m·x into dst and writes no
// other row: dst.Row(i) = Σ_p m.Val[p]·x.Row(m.ColIdx[p]) for every i in rows,
// accumulated in the row's stored-entry order, so each listed row is
// bitwise-identical to what MulDenseInto produces for it. It is the SpMM of
// callers that know which rows of the product they will read (the graph
// models' live-row propagation): cost is O(len(rows) + their entries), not
// O(m.Rows).
func (m *CSR) MulDenseRowsInto(dst, x *Matrix, rows []int) {
	if m.Cols != x.Rows || dst.Rows != m.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: CSR MulDenseRowsInto %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, m.Rows, m.Cols, x.Rows, x.Cols))
	}
	for _, i := range rows {
		drow := dst.Row(i)
		clear(drow)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			Axpy(m.Val[p], x.Row(m.ColIdx[p]), drow)
		}
	}
}

// MulDenseTInto computes dst = mᵀ·x (m is r×c, x is r×n, dst c×n). Used for
// backpropagation through asymmetric propagation operators.
func (m *CSR) MulDenseTInto(dst, x *Matrix) {
	if m.Rows != x.Rows || dst.Rows != m.Cols || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: CSR MulDenseTInto %dx%d = (%dx%d)ᵀ · %dx%d",
			dst.Rows, dst.Cols, m.Rows, m.Cols, x.Rows, x.Cols))
	}
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		xrow := x.Row(i)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			Axpy(m.Val[p], xrow, dst.Row(m.ColIdx[p]))
		}
	}
}

// At returns the value at (i, j), 0 if not stored. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	idx := sort.SearchInts(m.ColIdx[lo:hi], j)
	if idx < hi-lo && m.ColIdx[lo+idx] == j {
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
