package tensor

// Dot returns the inner product of a and b, summed in order from +0 with
// every multiply and add rounded separately (densegemm.go's contract; the
// float64 conversion forbids a fused multiply-add). The slices must have
// equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Axpy computes y += a*x in place: per element a multiply, then an add
// (elem.go's contract).
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	i := 0
	if axpyKernel != nil && len(x) >= 4 {
		i = len(x) &^ 3
		axpyKernel(a, &x[0], &y[0], i)
	}
	y = y[i:len(x)]
	for j, v := range x[i:] {
		y[j] += float64(a * v)
	}
}

// AddVec computes y += x in place.
func AddVec(x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: AddVec length mismatch")
	}
	i := 0
	if addVecKernel != nil && len(x) >= 4 {
		i = len(x) &^ 3
		addVecKernel(&x[0], &y[0], i)
	}
	y = y[i:len(x)]
	for j, v := range x[i:] {
		y[j] += v
	}
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}
