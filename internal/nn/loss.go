package nn

import "math"

// bceEps clamps predictions away from 0 and 1 so log never overflows. The
// paper's losses (Eq. 3 and Eq. 5) are binary cross-entropy with hard labels
// on the client's own data and soft labels everywhere else.
const bceEps = 1e-7

// BCE returns the mean binary cross-entropy between predictions (post
// sigmoid) and targets in [0,1].
func BCE(pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic("nn: BCE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var sum float64
	for i, p := range pred {
		p = clamp01(p)
		t := target[i]
		sum += -(t*math.Log(p) + (1-t)*math.Log(1-p))
	}
	return sum / float64(len(pred))
}

// BCEOne returns the unreduced binary cross-entropy of a single
// (prediction, target) pair, with the same clamping as BCE. The gradient
// workspace engine uses it to sum chunk losses before one final mean. A hard
// label takes only its live log: the other term is 0 times a finite log,
// −0, and x + (−0) is x, so the bits are the two-log form's.
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

// BCELogitGrad returns dL/dlogit for the sigmoid+BCE composition with mean
// reduction: (σ(logit) − target) / n. Passing the already-computed prediction
// avoids recomputing the sigmoid.
func BCELogitGrad(pred, target []float64) []float64 {
	if len(pred) != len(target) {
		panic("nn: BCELogitGrad length mismatch")
	}
	n := float64(len(pred))
	out := make([]float64, len(pred))
	for i, p := range pred {
		out[i] = (p - target[i]) / n
	}
	return out
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
