package tensor

// Dot returns the inner product of a and b. The slices must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// AddVec computes y += x in place.
func AddVec(x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: AddVec length mismatch")
	}
	for i, v := range x {
		y[i] += v
	}
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}
