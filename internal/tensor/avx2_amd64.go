package tensor

// gemmTile4x8AVX2 is the AVX2 form of one full tile of gemmBlock
// (densegemm.go): for r < 4 and j < 8 it stores Σₖ a[r*sai+k*sak]·b[k*ldb+j],
// k = 0 … kk−1, at c[r*ldc+j]. Every sum starts at +0 and takes one VMULPD
// and one VADDPD per k (no FMA), the operation sequence of gemmTileGo, four
// lanes at a time. kk must be positive; nothing is bounds-checked.
//
//go:noescape
func gemmTile4x8AVX2(c *float64, ldc int, a *float64, sai, sak int, b *float64, ldb, kk int)

// gemmTile8x8AVX512 is gemmTile4x8AVX2 over eight rows (r < 8), eight lanes
// at a time: the same per-element operation sequence, so the same bits.
//
//go:noescape
func gemmTile8x8AVX512(c *float64, ldc int, a *float64, sai, sak int, b *float64, ldb, kk int)

// The AVX2 forms of elem.go's kernels (elem_amd64.s), four lanes per
// instruction in the operation order of the Go bodies. n is a multiple of
// four; nothing is bounds-checked.

//go:noescape
func adamAVX2(w, m, v, grad *float64, n int, c adamConsts, decayed bool)

// adamAVX512 is AdamUpdate's AVX-512 body over n ≥ 1 elements, eight lanes
// at a time, the last n mod 8 under an opmask; adamProofAVX512 is its
// quotient proof over the eight lanes at a and q (elem_amd64.s).

//go:noescape
func adamAVX512(w, m, v, grad *float64, n int, s *AdamStep)

//go:noescape
func adamProofAVX512(a, q *[8]float64, b, bh float64) uint64

//go:noescape
func addVecAVX2(x, y *float64, n int)

//go:noescape
func axpyAVX2(a float64, x, y *float64, n int)

//go:noescape
func firstAboveAVX2(x *float64, n int, t float64) int

// spmmRowsAVX2 is the AVX2 form of spmmRows (sparse.go) over the rows' first
// cols columns, cols a multiple of four. It bounds-checks every row index,
// row range and column index it reads through, and returns n, or the position
// of the first row that fails a check.
//
//go:noescape
func spmmRowsAVX2(dst, x *float64, ld, xrows int, rowPtr, rows *int, n, mrows int, col *int, val *float64, nnz, cols int) int

// The sparse kernels of sparse_amd64.s. spmmRowsAVX512 is spmmRowsAVX2 over
// ZMM registers, cols a multiple of 32. spmmTAVX2 and spmmTAVX512 add the
// first cols columns (a multiple of four and of 16) of the transposed
// product Cᵀ·x into dst in one pass over C's n rows, check like
// spmmRowsAVX2 and return n or the first failing row. reluCSRAVX512 and
// reluMaskCSRAVX512 are ReLUCSRInto's and ReLUMaskCSRInto's bodies over the
// whole matrix; val and col hold rows·cols elements.

//go:noescape
func spmmRowsAVX512(dst, x *float64, ld, xrows int, rowPtr, rows *int, n, mrows int, col *int, val *float64, nnz, cols int) int

//go:noescape
func spmmTAVX2(dst, x *float64, ld, drows int, rowPtr *int, n int, col *int, val *float64, nnz, cols int) int

//go:noescape
func spmmTAVX512(dst, x *float64, ld, drows int, rowPtr *int, n int, col *int, val *float64, nnz, cols int) int

//go:noescape
func reluCSRAVX512(val *float64, col, rowPtr *int, z *float64, rows, cols int)

//go:noescape
func reluMaskCSRAVX512(val *float64, col, rowPtr *int, z, dy *float64, rows, cols int)

// reluCSRAVX2 and reluMaskCSRAVX2 are the AVX2 forms of the two ReLU
// compressions, four lanes at a time through compressPerm; val and col hold
// rows·cols + 3 elements. transposeAVX2 writes srcᵀ into dst for a rows×cols
// src, both multiples of four, 4×4 blocks at a time.

//go:noescape
func reluCSRAVX2(val *float64, col, rowPtr *int, z *float64, rows, cols int)

//go:noescape
func reluMaskCSRAVX2(val *float64, col, rowPtr *int, z, dy *float64, rows, cols int)

//go:noescape
func transposeAVX2(dst, src *float64, rows, cols int)

// cpuFeatures reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers, and whether it also implements AVX512F and
// the operating system saves the opmask and ZMM registers (CPUID leaves 1 and
// 7, XGETBV).
func cpuFeatures() (avx2, avx512 bool)

// init installs the assembly bodies the CPU can run, once. The dense core's
// tiles are chosen from the platform alone: the 8×8 AVX-512 tile only beside
// the 4×8 AVX2 tile, which computes the 4-row band below the last 8-row one.
// The ZMM sparse bodies and the AVX-512 Adam body are installed with the
// 8×8 tile: each SpMM runs the columns past its ZMM blocks on its AVX2 body,
// and the ReLU compressions and Adam run their ZMM bodies in place of the
// AVX2 ones.
func init() {
	if avx2, avx512 := cpuFeatures(); avx2 {
		tile4x8 = gemmTile4x8AVX2
		if avx512 {
			tile8x8 = gemmTile8x8AVX512
			spmmWideKernel = spmmRowsAVX512
			spmmTWideKernel = spmmTAVX512
			reluCSRWideKernel = reluCSRAVX512
			reluMaskCSRWideKernel = reluMaskCSRAVX512
			adamWide = true
		}
		adamKernel = adamAVX2
		addVecKernel = addVecAVX2
		axpyKernel = axpyAVX2
		firstAboveKernel = firstAboveAVX2
		spmmKernel = spmmRowsAVX2
		spmmTKernel = spmmTAVX2
		reluCSRKernel = reluCSRAVX2
		reluMaskCSRKernel = reluMaskCSRAVX2
		transposeKernel = transposeAVX2
	}
}
