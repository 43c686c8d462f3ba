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

//go:noescape
func reluAVX2(dst, x *float64, n int)

//go:noescape
func reluMaskAVX2(x, dy *float64, n int)

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

// cpuFeatures reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers, and whether it also implements AVX512F and
// the operating system saves the opmask and ZMM registers (CPUID leaves 1 and
// 7, XGETBV).
func cpuFeatures() (avx2, avx512 bool)

// init installs the assembly bodies the CPU can run, once. The dense core's
// tiles are chosen from the platform alone: the 8×8 AVX-512 tile only beside
// the 4×8 AVX2 tile, which computes the 4-row band below the last 8-row one.
func init() {
	if avx2, avx512 := cpuFeatures(); avx2 {
		tile4x8 = gemmTile4x8AVX2
		if avx512 {
			tile8x8 = gemmTile8x8AVX512
		}
		adamKernel = adamAVX2
		reluKernel = reluAVX2
		reluMaskKernel = reluMaskAVX2
		addVecKernel = addVecAVX2
		axpyKernel = axpyAVX2
		firstAboveKernel = firstAboveAVX2
		spmmKernel = spmmRowsAVX2
	}
}
