package tensor

// gemmTile4x8AVX2 is the AVX2 form of one full tile of gemm (densegemm.go):
// for r < 4 and j < 8 it stores Σₖ a[r*sai+k*sak]·b[k*n+j], k = 0 … kk−1, at
// c[r*n+j]. Every sum starts at +0 and takes one VMULPD and one VADDPD per k
// (no FMA), the operation sequence of gemmTileGo, four lanes at a time. kk
// must be positive; nothing is bounds-checked.
//
//go:noescape
func gemmTile4x8AVX2(c, a *float64, sai, sak int, b *float64, n, kk int)

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM registers (CPUID leaves 1 and 7, XGETBV).
func cpuHasAVX2() bool

func init() {
	if cpuHasAVX2() {
		fullTile = gemmTile4x8AVX2
	}
}
