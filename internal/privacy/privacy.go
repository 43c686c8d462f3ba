// Package privacy implements §III-B2 of the paper: the privacy-preserving
// construction of the client upload D̂ᵗᵢ (sampling + swapping), the LDP
// baseline it is compared against, and the curious-but-honest server's
// "Top Guess Attack" used to measure leakage (Table V, Fig. 3).
package privacy

import (
	"cmp"
	"math"
	"slices"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/rng"
)

// Defense selects the upload-perturbation mechanism.
type Defense string

// The defenses evaluated in Table V.
const (
	DefenseNone         Defense = "none"
	DefenseLDP          Defense = "ldp"
	DefenseSampling     Defense = "sampling"
	DefenseSamplingSwap Defense = "sampling+swap"
)

// ParseDefense converts a string (CLI flag) to a Defense.
func ParseDefense(s string) (Defense, bool) {
	switch Defense(s) {
	case DefenseNone, DefenseLDP, DefenseSampling, DefenseSamplingSwap:
		return Defense(s), true
	}
	return "", false
}

// Config carries the §IV-D defaults for the upload mechanism.
type Config struct {
	Defense Defense
	// Sampling: βᵗᵢ ~ U[BetaMin, BetaMax] is the fraction of positives
	// uploaded, γᵗᵢ ~ U{GammaMin..GammaMax} the negatives-per-positive ratio.
	BetaMin, BetaMax   float64
	GammaMin, GammaMax int
	// Swapping: λ is the fraction of high-scoring positives whose scores are
	// exchanged with negatives.
	Lambda float64
	// LDP: scale of the Laplace noise added to every score (b = Δf/ε with
	// sensitivity 1 for scores in [0,1]).
	LaplaceScale float64
}

// DefaultConfig returns the paper's settings: β∈[0.1,1], γ∈{1..4}, λ=0.1.
func DefaultConfig() Config {
	return Config{
		Defense:      DefenseSamplingSwap,
		BetaMin:      0.1,
		BetaMax:      1.0,
		GammaMin:     1,
		GammaMax:     4,
		Lambda:       0.1,
		LaplaceScale: 0.5,
	}
}

// SampleUpload draws the uploaded item subset from the client's trained item
// pool: a βᵗᵢ fraction of positives and γᵗᵢ negatives per selected positive
// (Eq. 7). It returns the selected positives and negatives separately so the
// caller can score them; the server only ever sees the merged, shuffled set.
func SampleUpload(s *rng.Stream, positives, negatives []int, cfg Config) (selPos, selNeg []int, beta float64, gamma int) {
	beta = s.Float64Range(cfg.BetaMin, cfg.BetaMax)
	gamma = s.IntRange(cfg.GammaMin, cfg.GammaMax)
	nPos := int(math.Ceil(beta * float64(len(positives))))
	if nPos > len(positives) {
		nPos = len(positives)
	}
	if nPos < 1 && len(positives) > 0 {
		nPos = 1
	}
	nNeg := gamma * nPos
	if nNeg > len(negatives) {
		nNeg = len(negatives)
	}
	selPos = rng.SampleSlice(s, positives, nPos)
	selNeg = rng.SampleSlice(s, negatives, nNeg)
	return selPos, selNeg, beta, gamma
}

// Swap perturbs the predictions in place (Eq. 8): it takes the λ fraction of
// positives with the highest scores and exchanges each one's score with a
// randomly chosen negative's score, destroying exactly the order information
// the Top Guess Attack relies on.
func Swap(s *rng.Stream, preds []comm.Prediction, isPositive func(item int) bool, lambda float64) int {
	// One index list: positives from the front, negatives from the back, the
	// latter reversed into ascending order, as the draws below index them.
	idx := make([]int, len(preds))
	np, nn := 0, len(preds)
	for i, p := range preds {
		if isPositive(p.Item) {
			idx[np] = i
			np++
		} else {
			nn--
			idx[nn] = i
		}
	}
	posIdx, negIdx := idx[:np], idx[np:]
	slices.Reverse(negIdx)
	if len(posIdx) == 0 || len(negIdx) == 0 {
		return 0
	}
	slices.SortStableFunc(posIdx, func(a, b int) int { return cmp.Compare(preds[b].Score, preds[a].Score) })
	n := int(math.Ceil(lambda * float64(len(posIdx))))
	if n > len(posIdx) {
		n = len(posIdx)
	}
	for k := 0; k < n; k++ {
		pi := posIdx[k]
		ni := negIdx[s.Intn(len(negIdx))]
		preds[pi].Score, preds[ni].Score = preds[ni].Score, preds[pi].Score
	}
	return n
}

// AddLaplace perturbs every score with Laplace(scale) noise clamped back to
// [0,1] — the traditional FedRec LDP baseline of Table V.
func AddLaplace(s *rng.Stream, preds []comm.Prediction, scale float64) {
	for i := range preds {
		v := preds[i].Score + s.Laplace(scale)
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		preds[i].Score = v
	}
}

// GuessBuffer is the Top Guess Attack's scratch: the upload's scores and the
// guessed positions. A caller that attacks many uploads keeps one and hands it
// to every TopGuessAttack, which then allocates nothing once the buffer has
// grown to the largest upload. The zero value is ready.
type GuessBuffer struct {
	scores []float64
	guess  []int
}

// TopGuessAttack is the curious-but-honest server's inference from §III-B2:
// it assumes the uploaded set follows the platform-default negative sampling
// ratio and guesses the top posFraction·|upload| items by score as the
// client's positives (the paper uses posFraction = 0.2 for the 1:4 ratio).
// It returns the guessed items' positions in preds, in buf's storage, valid
// until buf's next use.
func TopGuessAttack(buf *GuessBuffer, preds []comm.Prediction, posFraction float64) []int {
	n := int(math.Round(posFraction * float64(len(preds))))
	if n < 1 && len(preds) > 0 {
		n = 1
	}
	buf.scores = buf.scores[:0]
	for _, p := range preds {
		buf.scores = append(buf.scores, p.Score)
	}
	// The guessed set is order-insensitive, so the bounded-heap selection is a
	// drop-in for the full sort (identical indices, O(n log k)).
	buf.guess = metrics.TopKInto(buf.guess, buf.scores, n)
	return buf.guess
}

// AttackF1 scores the attack's guess, positions in preds, against the true
// positive items that appear in the upload. Only uploaded items count: the
// attack's target is exactly the positive/negative partition of D̂ᵗᵢ. An
// upload names each item once, so counting positions counts items.
func AttackF1(preds []comm.Prediction, guessed []int, isPositive func(item int) bool) float64 {
	tp, truth := 0, 0
	for _, i := range guessed {
		if isPositive(preds[i].Item) {
			tp++
		}
	}
	for _, p := range preds {
		if isPositive(p.Item) {
			truth++
		}
	}
	return metrics.F1Counts(tp, len(guessed), truth)
}

// AmplifyBySampling applies the privacy-amplification-by-subsampling bound:
// running an (ε₀, δ₀)-DP mechanism on a q-subsample satisfies
// (ln(1+q(e^{ε₀}−1)), qδ₀)-DP. The sampling step of §III-B2 cites this
// noise-free DP argument; the helper lets experiments report the amplified
// budget for a given β.
func AmplifyBySampling(eps0, delta0, q float64) (eps, delta float64) {
	if q <= 0 {
		return 0, 0
	}
	if q >= 1 {
		return eps0, delta0
	}
	return math.Log(1 + q*(math.Exp(eps0)-1)), q * delta0
}
