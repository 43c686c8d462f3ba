package tensor

// This file holds parallel variants of the hot linear-algebra kernels. Every
// function here keeps a determinism contract: results are bitwise-identical
// for every worker count, either because each output row is produced by
// exactly one goroutine with the serial inner-loop order (row-partitioned
// kernels), or because the reduction runs over fixed-size chunks merged in
// chunk order (MatMulATBPar).

import (
	"fmt"

	"ptffedrec/internal/par"
)

// parRowChunk is the row-range granularity of the row-partitioned kernels:
// coarse enough that the worker pool's atomic counter is off the hot path,
// fine enough to balance skewed row costs (e.g. popular items in an
// adjacency). Purely a scheduling knob — it never affects results.
const parRowChunk = 128

// atbChunkRows is the fixed row-shard width of MatMulATBPar's ordered
// reduction. It is a semantic constant: changing it changes the float
// association of the result, so it must not depend on the worker count.
const atbChunkRows = 1024

// MulDenseIntoPar computes dst = m·x like MulDenseInto, sharding dst's rows
// over workers. Bitwise-identical to MulDenseInto for every worker count.
func (m *CSR) MulDenseIntoPar(dst, x *Matrix, workers int) {
	if workers <= 1 {
		m.MulDenseInto(dst, x)
		return
	}
	if m.Cols != x.Rows || dst.Rows != m.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: CSR MulDenseIntoPar %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, m.Rows, m.Cols, x.Rows, x.Cols))
	}
	par.ForChunks(m.Rows, parRowChunk, workers, func(lo, hi int) {
		m.spmmRows(dst.Data[lo*dst.Cols:hi*dst.Cols], x, nil, lo, hi-lo)
	})
}

// MulDensePar returns m·x as a new matrix, computed with MulDenseIntoPar.
func (m *CSR) MulDensePar(x *Matrix, workers int) *Matrix {
	out := New(m.Rows, x.Cols)
	m.MulDenseIntoPar(out, x, workers)
	return out
}

// MatMulPar returns a·b like MatMul, sharding the output rows over workers.
// Bitwise-identical to MatMul for every worker count.
func MatMulPar(a, b *Matrix, workers int) *Matrix {
	if workers <= 1 {
		return MatMul(a, b)
	}
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulPar %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst := New(a.Rows, b.Cols)
	gemmRowsPar(dst, a, b, workers)
	return dst
}

// gemmRowsPar computes dst = a·b through the dense core, one call per
// parRowChunk-row range of dst.
func gemmRowsPar(dst, a, b *Matrix, workers int) {
	par.ForChunks(a.Rows, parRowChunk, workers, func(lo, hi int) {
		gemm(dst.Data[lo*dst.Cols:hi*dst.Cols], a.Data[lo*a.Cols:hi*a.Cols], a.Cols, 1, b.Data, hi-lo, b.Cols, a.Cols)
	})
}

// MatMulABTPar returns a·bᵀ like MatMulABT, sharding output rows over
// workers. Bitwise-identical to MatMulABT for every worker count.
func MatMulABTPar(a, b *Matrix, workers int) *Matrix {
	if workers <= 1 {
		return MatMulABT(a, b)
	}
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABTPar %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	gemmRowsPar(out, a, b.Transpose(), workers)
	return out
}

// MatMulATBPar returns aᵀ·b, reducing over fixed atbChunkRows-row shards of
// the shared leading dimension and merging the per-shard partial products in
// shard order. The result is bitwise-identical for every worker count, but —
// unlike the row-partitioned kernels — its float association differs from the
// serial MatMulATB once a.Rows exceeds one shard; callers must pick one of
// the two consistently.
func MatMulATBPar(a, b *Matrix, workers int) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATBPar %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	nChunks := (a.Rows + atbChunkRows - 1) / atbChunkRows
	if nChunks <= 1 {
		return MatMulATB(a, b)
	}
	partials := make([]*Matrix, nChunks)
	par.For(nChunks, workers, func(c int) {
		lo := c * atbChunkRows
		hi := lo + atbChunkRows
		if hi > a.Rows {
			hi = a.Rows
		}
		partials[c] = matMulATBRange(a, b, lo, hi)
	})
	out := partials[0]
	for _, p := range partials[1:] {
		out.AddInPlace(p)
	}
	return out
}

// matMulATBRange computes aᵀ·b restricted to rows [lo, hi) of the shared
// leading dimension, each element summed k-ascending over that range.
func matMulATBRange(a, b *Matrix, lo, hi int) *Matrix {
	out := New(a.Cols, b.Cols)
	gemm(out.Data, a.Data[lo*a.Cols:hi*a.Cols], 1, a.Cols, b.Data[lo*b.Cols:hi*b.Cols], a.Cols, b.Cols, hi-lo)
	return out
}
