package tensor

// This file holds the one dense GEMM core every dense product in the
// repository runs on — MatMul, MatMulInto, MatMulATBInto and MatMulABTInto,
// and so every nn.Dense forward and backward and every NGCF layer — and the
// gathered scoring products of gemm.go, which pack their rows into panels and
// run the same tiles.
//
// Determinism contract: every output element is one sum, accumulated
// k-ascending from +0 with a separately rounded multiply and add (never a
// fused multiply-add), exactly what the naive triple loop computes. The core
// only changes which elements are in flight together: the output is cut into
// bands of 8 rows (where an 8×8 tile is installed) or 4 rows, and each band
// into 8-column tiles. A full tile is computed by an assembly micro-kernel
// from gemm_amd64.s, chosen once at init from what the CPU and OS support —
// the AVX-512 8×8 tile, the AVX2 4×8 tile — or by the register-blocked pure
// Go tile below, which also computes every edge tile on every platform. All
// three run the same per-element operation sequence, so results are
// bitwise-identical with and without the assembly, for every tiling and
// every worker count.
//
// The one place the core differs from the naive loops it replaced
// (gemm_oracle_test.go): those skipped a zero element of A, so 0 × ±Inf and
// 0 × NaN contributed nothing; the core multiplies it out and yields NaN.
// Finite inputs are bit-identical — a sum that starts at +0 is never −0, so
// adding the skipped ±0 product cannot change it.
//
// Zero-skipping now happens on the sparse path instead: the NeuMF tower runs
// every product whose left operand is a ReLU output or a ReLU-masked
// gradient as CSR × dense over that operand's nonzeros (sparse.go's
// ReLUCSRInto and ReLUMaskCSRInto build the CSR; spmmRows and MulTDenseInto
// multiply). The sums keep this contract's order and rounding, so for finite
// weights they equal the core's bit for bit, by the argument above. A
// non-finite weight (or input row) facing a skipped zero contributes nothing
// on the sparse path, as in the naive loops, where the core yields NaN.

import "fmt"

// tile4x8 and tile8x8, when non-nil, compute one full 4×8 and 8×8 tile of
// gemmBlock's output in place of gemmTileGo: c, a and b point at the tile's
// first output element, at A's element (tile row, 0) and at B's element
// (0, tile column). They are set once, by avx2_amd64.go's init, and tile8x8
// only where tile4x8 is.
var tile4x8, tile8x8 func(c *float64, ldc int, a *float64, sai, sak int, b *float64, ldb, kk int)

// gemm computes the dense row-major m×n product
//
//	c[i*n+j] = Σₖ a[i*sai+k*sak] · b[k*n+j],   k = 0 … kk−1
//
// under the file's determinism contract. The strides make A either
// row-major (sai = its column count, sak = 1) or read as its transpose
// (sai = 1, sak = its column count).
func gemm(c, a []float64, sai, sak int, b []float64, m, n, kk int) {
	if m == 0 || n == 0 {
		return
	}
	if kk == 0 {
		clear(c[:m*n])
		return
	}
	// The assembly tile is not bounds-checked; make sure here that every
	// index the formula above can form is inside its slice.
	if len(c) < m*n || len(b) < kk*n || len(a) <= (m-1)*sai+(kk-1)*sak {
		panic(fmt.Sprintf("tensor: gemm %dx%d = %dx%d · %dx%d over slices of %d, %d, %d", m, n, m, kk, kk, n, len(c), len(a), len(b)))
	}
	gemmBlock(c, n, a, sai, sak, b, n, m, n, kk)
}

// gemmBlock computes
//
//	c[i*ldc+j] = Σₖ a[i*sai+k*sak] · b[k*ldb+j],   i < m, j < n, k < kk
//
// band by band: while tile8x8 is installed and 8 rows remain, an 8-row band
// whose full 8-column tiles go through tile8x8; then 4-row bands whose full
// tiles go through tile4x8. Every edge tile — and every tile of an empty sum,
// kk = 0 — goes through gemmTileGo. Every index must be in range; the caller
// checks.
func gemmBlock(c []float64, ldc int, a []float64, sai, sak int, b []float64, ldb, m, n, kk int) {
	for i := 0; i < m; {
		mr, tile := min(4, m-i), tile4x8
		if m-i >= 8 && tile8x8 != nil {
			mr, tile = 8, tile8x8
		}
		for j := 0; j < n; j += 8 {
			nr := min(8, n-j)
			if mr >= 4 && nr == 8 && kk > 0 && tile != nil {
				tile(&c[i*ldc+j], ldc, &a[i*sai], sai, sak, &b[j], ldb, kk)
			} else {
				gemmTileGo(c[i*ldc+j:], ldc, a[i*sai:], sai, sak, b[j:], ldb, mr, nr, kk)
			}
		}
		i += mr
	}
}

// gemmTileGo computes one mr×nr tile (mr ≤ 8, nr ≤ 8) of gemmBlock's output
// in pure Go. A full-width row keeps its eight sums in registers across the k
// loop — eight independent add chains and one load of each B element — and a
// narrower edge row falls back to one sum at a time. The float64
// conversions forbid the compiler from fusing a multiply into the add that
// follows it (it would on arm64 and at GOAMD64=v3), which keeps the contract
// on every target.
func gemmTileGo(c []float64, ldc int, a []float64, sai, sak int, b []float64, ldb, mr, nr, kk int) {
	for i := 0; i < mr; i++ {
		ai := a[i*sai:]
		ci := c[i*ldc : i*ldc+nr]
		if nr == 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for k := 0; k < kk; k++ {
				av := ai[k*sak]
				bk := b[k*ldb : k*ldb+8]
				s0 += float64(av * bk[0])
				s1 += float64(av * bk[1])
				s2 += float64(av * bk[2])
				s3 += float64(av * bk[3])
				s4 += float64(av * bk[4])
				s5 += float64(av * bk[5])
				s6 += float64(av * bk[6])
				s7 += float64(av * bk[7])
			}
			ci[0], ci[1], ci[2], ci[3], ci[4], ci[5], ci[6], ci[7] = s0, s1, s2, s3, s4, s5, s6, s7
			continue
		}
		for j := range ci {
			var s float64
			for k := 0; k < kk; k++ {
				s += float64(ai[k*sak] * b[k*ldb+j])
			}
			ci[j] = s
		}
	}
}

// MatMul returns a·b as a new matrix.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a·b, reusing dst's storage.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	gemm(dst.Data, a.Data, a.Cols, 1, b.Data, a.Rows, b.Cols, a.Cols)
}

// MatMulATBInto computes dst = aᵀ·b (a is rows×m, b is rows×n, dst m×n),
// reusing dst's storage.
func MatMulATBInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATBInto %dx%d = %dx%d ᵀ· %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	gemm(dst.Data, a.Data, 1, a.Cols, b.Data, a.Cols, b.Cols, a.Rows)
}

// MatMulABTInto computes dst = a·bᵀ (a is m×k, b is n×k, dst m×n), reusing
// dst's storage. bt is caller
// scratch of bᵀ's shape: b — the small operand in every use, a layer's weight
// matrix — is transposed into it so the product runs as a·bt through the one
// core, each element summed in the k order of Dot(a.Row(i), b.Row(j)).
func MatMulABTInto(dst, a, b, bt *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABTInto %dx%d = %dx%d · %dx%d ᵀ",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	b.TransposeInto(bt)
	gemm(dst.Data, a.Data, a.Cols, 1, bt.Data, a.Rows, b.Rows, a.Cols)
}
