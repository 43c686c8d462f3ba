package tensor

// gemmTile4x8AVX2 is the AVX2 form of one full tile of gemmBlock
// (densegemm.go): for r < 4 and j < 8 it stores Σₖ a[r*sai+k*sak]·b[k*ldb+j],
// k = 0 … kk−1, at c[r*ldc+j]. Every sum starts at +0 and takes one VMULPD
// and one VADDPD per k (no FMA), the operation sequence of gemmTileGo, four
// lanes at a time. kk must be positive; nothing is bounds-checked.
//
//go:noescape
func gemmTile4x8AVX2(c *float64, ldc int, a *float64, sai, sak int, b *float64, ldb, kk int)

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

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM registers (CPUID leaves 1 and 7, XGETBV).
func cpuHasAVX2() bool

func init() {
	if cpuHasAVX2() {
		fullTile = gemmTile4x8AVX2
		adamKernel = adamAVX2
		reluKernel = reluAVX2
		reluMaskKernel = reluMaskAVX2
		addVecKernel = addVecAVX2
		axpyKernel = axpyAVX2
	}
}
