//go:build !amd64

package tensor

// adamAVX512 is AdamUpdate's AVX-512 body, assembled on amd64 alone; adamWide
// is never set elsewhere, so this is never called.
func adamAVX512(w, m, v, grad *float64, n int, s *AdamStep) {
	panic("tensor: no AVX-512 Adam body on this platform")
}
