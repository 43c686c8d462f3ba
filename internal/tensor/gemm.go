package tensor

// This file holds the multi-user gather-GEMM kernels behind the batched
// evaluation and dispersal engines (models.MultiBlockScorer): a block of
// query rows gathered from one matrix is scored against a block of candidate
// rows gathered from another, producing a dense query×candidate score matrix
// in one pass. A block of one query row is how dispersal re-scores a
// client's chosen items and evaluation scores a user's held-out items.
//
// Determinism contract: densegemm.go's, the one every dense product keeps —
// each output element is one sum, k-ascending from +0, with the multiply and
// the add rounded separately. That is Dot's order, so a multi-user GEMM score
// is bitwise-identical to the per-item dot loop it replaces, whichever tile
// the core installed at init (AVX-512 8×8, AVX2 4×8 or pure Go) computes it.
// GatherMulMat* packs every query row and every 8-candidate strip once per
// call and runs the core's tiles over the whole block, 8-row bands first
// where the 8×8 tile is installed; a one-row block is a Dot per candidate.

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

// gatherScratch holds gatherMulMat's panels. It is pooled because a panel
// handed to a tile through the tile4x8 and tile8x8 func vars escapes: on the
// stack it would be a heap allocation per call.
type gatherScratch struct{ buf []float64 }

var gatherPool = sync.Pool{New: func() any { return new(gatherScratch) }}

// gatherMulMat computes the kernel on the dense core (densegemm.go): for two
// or more query rows, all m are packed once into a row-major panel, and per
// strip of up to eight candidates the rows are packed once into a d×8 Bᵀ
// panel; gemmBlock then writes the m × strip tiles straight into dst. The Add
// form has them written to an m×8 strip of sums first and adds that into dst,
// so every element is dst + Σ, the sum k-ascending from +0.
func gatherMulMat(dst *Matrix, a *Matrix, arows []int, aoff int, b *Matrix, brows []int, boff int, add bool) {
	m, n, d := len(arows), len(brows), a.Cols
	if m == 0 || n == 0 {
		return
	}
	if m == 1 {
		// One query row fills no 4-row tile, and packing its strips costs
		// more than the product: Dot sums in the tiles' order.
		q, row := a.Row(arows[0]+aoff), dst.Row(0)
		for j, br := range brows {
			if s := Dot(q, b.Row(br+boff)); add {
				row[j] += s
			} else {
				row[j] = s
			}
		}
		return
	}
	ws := gatherPool.Get().(*gatherScratch)
	need := (m+8)*d + m*8
	if cap(ws.buf) < need {
		ws.buf = make([]float64, need)
	}
	ap := ws.buf[:m*d]
	bp := ws.buf[m*d : (m+8)*d]
	sums := ws.buf[(m+8)*d : need]
	for r, ar := range arows {
		copy(ap[r*d:(r+1)*d], a.Row(ar+aoff))
	}
	for j := 0; j < n; j += 8 {
		nr := min(8, n-j)
		packStrip(bp, b, brows[j:j+nr], boff)
		if !add {
			gemmBlock(dst.Data[j:], n, ap, d, 1, bp, 8, m, nr, d)
			continue
		}
		gemmBlock(sums, 8, ap, d, 1, bp, 8, m, nr, d)
		for r := range m {
			AddVec(sums[r*8:r*8+nr], dst.Row(r)[j:j+nr])
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
