package tensor

// This file holds the multi-user gather-GEMM kernels behind the batched
// evaluation and dispersal engines (models.MultiBlockScorer): a block of
// query rows gathered from one matrix is scored against a block of candidate
// rows gathered from another, producing a dense query×candidate score matrix
// in one pass.
//
// Determinism contract: densegemm.go's, the one every dense product keeps —
// each output element is one sum, k-ascending from +0, with the multiply and
// the add rounded separately. That is Dot's order, so a multi-user GEMM score
// is bitwise-identical to the per-item dot loop it replaces. GatherMulMat*
// packs its rows into panels and runs the core's tiles; the ragged pair
// kernels keep four independent pair sums in flight, which changes no
// element's order either.

import (
	"fmt"
	"sync"
)

func checkGatherMat(dst *Matrix, a *Matrix, arows []int, b *Matrix, brows []int) {
	if dst.Rows != len(arows) || dst.Cols != len(brows) {
		panic(fmt.Sprintf("tensor: GatherMulMatInto dst %dx%d for %d×%d gathered rows",
			dst.Rows, dst.Cols, len(arows), len(brows)))
	}
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GatherMulMatInto inner dims %d vs %d", a.Cols, b.Cols))
	}
}

// GatherMulMatInto computes the double-gathered GEMM
//
//	dst.Row(i)[j] = a.Row(arows[i]+aoff) · b.Row(brows[j]+boff)
//
// — every gathered query row of a scored against every gathered candidate row
// of b, with no intermediate gather matrices materialised. dst must be
// len(arows) × len(brows).
func GatherMulMatInto(dst *Matrix, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int) {
	checkGatherMat(dst, a, arows, b, brows)
	gatherMulMat(dst, a, arows, aoff, b, brows, boff, false)
}

// GatherMulMatAddInto is GatherMulMatInto accumulating into dst:
// dst.Row(i)[j] += a.Row(arows[i]+aoff)·b.Row(brows[j]+boff). Used by
// readouts that sum dot products over several embedding matrices (NGCF's
// layer concatenation).
func GatherMulMatAddInto(dst *Matrix, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int) {
	checkGatherMat(dst, a, arows, b, brows)
	gatherMulMat(dst, a, arows, aoff, b, brows, boff, true)
}

// gatherRows is gatherMulMat's query block: its rows are packed once, and
// each candidate strip packed for it feeds four tile rows.
const gatherRows = 16

// gatherScratch holds gatherMulMat's panels. It is pooled because a panel
// handed to the tile through the fullTile func var escapes: on the stack it
// would be a heap allocation per call.
type gatherScratch struct{ buf []float64 }

var gatherPool = sync.Pool{New: func() any { return new(gatherScratch) }}

// gatherMulMat computes the kernel on the dense core (densegemm.go): per
// block of up to gatherRows query rows, the rows are packed into a row-major
// panel, and per strip of up to eight candidates the rows are packed into a
// d×8 Bᵀ panel; gemmBlock then writes the block × strip tiles straight into
// dst. The Add form has them written to a strip of sums first and adds that
// into dst, so every element is dst + Σ, the sum k-ascending from +0.
func gatherMulMat(dst *Matrix, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int, add bool) {
	m, n, d := len(arows), len(brows), a.Cols
	if m == 0 || n == 0 {
		return
	}
	ws := gatherPool.Get().(*gatherScratch)
	need := (gatherRows+8)*d + gatherRows*8
	if cap(ws.buf) < need {
		ws.buf = make([]float64, need)
	}
	ap := ws.buf[:gatherRows*d]
	bp := ws.buf[gatherRows*d : (gatherRows+8)*d]
	sums := ws.buf[(gatherRows+8)*d : need]
	for i0 := 0; i0 < m; i0 += gatherRows {
		mb := min(gatherRows, m-i0)
		for r, ar := range arows[i0 : i0+mb] {
			copy(ap[r*d:(r+1)*d], a.Row(ar+aoff))
		}
		for j := 0; j < n; j += 8 {
			nr := min(8, n-j)
			packStrip(bp, b, brows[j:j+nr], boff)
			if !add {
				gemmBlock(dst.Data[i0*n+j:], n, ap, d, 1, bp, 8, mb, nr, d)
				continue
			}
			gemmBlock(sums, 8, ap, d, 1, bp, 8, mb, nr, d)
			for r := range mb {
				AddVec(sums[r*8:r*8+nr], dst.Row(i0 + r)[j:j+nr])
			}
		}
	}
	gatherPool.Put(ws)
}

// packStrip writes the rows b.Row(rows[c]+off), c < len(rows) ≤ 8, as the
// columns of the b.Cols×8 panel p: p[k*8+c] = b.Row(rows[c]+off)[k].
func packStrip(p []float64, b *Matrix, rows []int, off int) {
	d := b.Cols
	if len(rows) == 8 {
		// Reslicing every row to d lets the compiler drop the bounds checks.
		r0, r1 := b.Row(rows[0] + off)[:d], b.Row(rows[1] + off)[:d]
		r2, r3 := b.Row(rows[2] + off)[:d], b.Row(rows[3] + off)[:d]
		r4, r5 := b.Row(rows[4] + off)[:d], b.Row(rows[5] + off)[:d]
		r6, r7 := b.Row(rows[6] + off)[:d], b.Row(rows[7] + off)[:d]
		for k := range d {
			q := p[k*8 : k*8+8]
			q[0], q[1], q[2], q[3] = r0[k], r1[k], r2[k], r3[k]
			q[4], q[5], q[6], q[7] = r4[k], r5[k], r6[k], r7[k]
		}
		return
	}
	for c, br := range rows {
		for k, v := range b.Row(br + off) {
			p[k*8+c] = v
		}
	}
}

func checkGatherPair(dst []float64, a *Matrix, arows []int, b *Matrix, brows []int) {
	if len(dst) != len(arows) || len(arows) != len(brows) {
		panic(fmt.Sprintf("tensor: GatherPairDotInto dst[%d] for %d×%d pairs",
			len(dst), len(arows), len(brows)))
	}
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GatherPairDotInto inner dims %d vs %d", a.Cols, b.Cols))
	}
}

// GatherPairDotInto computes the element-wise gathered pair products
//
//	dst[p] = a.Row(arows[p]+aoff) · b.Row(brows[p]+boff)
//
// — the ragged counterpart of GatherMulMatInto, scoring many (query,
// candidate) pairs with arbitrary per-pair rows in one pass. Four pair
// accumulators run interleaved; each pair's dot still accumulates
// k-ascending, so results are bitwise-identical to per-pair Dot calls.
func GatherPairDotInto(dst []float64, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int) {
	checkGatherPair(dst, a, arows, b, brows)
	gatherPairDotRange(dst, a, arows, aoff, b, brows, boff, false)
}

// GatherPairDotAddInto is GatherPairDotInto accumulating into dst. Used by
// readouts that sum pair dots over several embedding matrices (NGCF's layer
// concatenation).
func GatherPairDotAddInto(dst []float64, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int) {
	checkGatherPair(dst, a, arows, b, brows)
	gatherPairDotRange(dst, a, arows, aoff, b, brows, boff, true)
}

func gatherPairDotRange(dst []float64, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int, add bool) {
	d := a.Cols
	p := 0
	for ; p+4 <= len(arows); p += 4 {
		// Reslicing every row to the shared inner length d lets the compiler
		// drop the per-element bounds checks; the four pair accumulators then
		// run as independent dependency chains in one k loop. The float64
		// conversions keep each multiply out of a fused multiply-add, as in
		// gemmTileGo.
		a0 := a.Row(arows[p] + aoff)[:d]
		a1 := a.Row(arows[p+1] + aoff)[:d]
		a2 := a.Row(arows[p+2] + aoff)[:d]
		a3 := a.Row(arows[p+3] + aoff)[:d]
		b0 := b.Row(brows[p] + boff)[:d]
		b1 := b.Row(brows[p+1] + boff)[:d]
		b2 := b.Row(brows[p+2] + boff)[:d]
		b3 := b.Row(brows[p+3] + boff)[:d]
		var s0, s1, s2, s3 float64
		for k := 0; k < d; k++ {
			s0 += float64(a0[k] * b0[k])
			s1 += float64(a1[k] * b1[k])
			s2 += float64(a2[k] * b2[k])
			s3 += float64(a3[k] * b3[k])
		}
		if add {
			dst[p] += s0
			dst[p+1] += s1
			dst[p+2] += s2
			dst[p+3] += s3
		} else {
			dst[p], dst[p+1], dst[p+2], dst[p+3] = s0, s1, s2, s3
		}
	}
	for ; p < len(arows); p++ {
		s := Dot(a.Row(arows[p]+aoff), b.Row(brows[p]+boff))
		if add {
			dst[p] += s
		} else {
			dst[p] = s
		}
	}
}
