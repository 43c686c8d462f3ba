package nn

import "math"

// bceEps clamps predictions away from 0 and 1 so log never overflows. The
// paper's losses (Eq. 3 and Eq. 5) are binary cross-entropy with hard labels
// on the client's own data and soft labels everywhere else.
const bceEps = 1e-7

// BCEOne returns the unreduced binary cross-entropy of a single
// (prediction, target) pair, the prediction clamped to [bceEps, 1−bceEps].
// Every model sums it over a batch before one final mean. A hard label takes
// only its live log: the other term is 0 times a finite log, −0, and
// x + (−0) is x, so the bits are the two-log form's.
func BCEOne(pred, target float64) float64 {
	p := clamp01(pred)
	switch target {
	case 0:
		return -math.Log(1 - p)
	case 1:
		return -math.Log(p)
	}
	return -(target*math.Log(p) + (1-target)*math.Log(1-p))
}

func clamp01(p float64) float64 {
	if p < bceEps {
		return bceEps
	}
	if p > 1-bceEps {
		return 1 - bceEps
	}
	return p
}
