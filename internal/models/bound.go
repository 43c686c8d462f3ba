package models

import (
	"fmt"
	"math"
)

// LogitBounder is an optional MultiBlockScorer extension for a scorer whose
// logit is the dot product of a user row and an item row. LogitBoundsInto
// writes into dst — which must hold len(users)+len(items) values — a bound
// b for each of users, then for each of items, such that every logit
// ScoreUsersBlockLogitsInto writes for (users[i], items[j]), rounding
// included, satisfies
//
//	|logit| ≤ b_u·b_v, the product computed in float64.
//
// A bound of +Inf or NaN promises nothing and so never lets a consumer skip
// a score; a row holding ±Inf or NaN gets one. Evaluation's rank counter
// scans items in descending bound and stops scoring a user once no remaining
// item's bound lets it beat a held-out item. The bounds are read-only
// queries under the same concurrency rules as scoring (warm a Warmer first).
type LogitBounder interface {
	MultiBlockScorer
	LogitBoundsInto(dst []float64, users, items []int)
}

// checkBounds validates a LogitBoundsInto destination.
func checkBounds(dst []float64, users, items []int) {
	if len(dst) != len(users)+len(items) {
		panic(fmt.Sprintf("models: LogitBoundsInto dst %d for %d users + %d items", len(dst), len(users), len(items)))
	}
}

// boundFloor is the absolute slack every row bound carries: its square,
// 2⁻¹⁰⁰⁰, is a normal float far above what underflow can add to a dot
// product of any length (at most 2⁻¹⁰⁷⁵ a product), and a product of two
// bounds never drops below it, so rounding that product is relative.
const boundFloor = 0x1p-500

// tinyRow is the largest entry below which a row's norm is within
// boundFloor: √n·2⁻⁵⁴⁰ < 2⁻⁵⁰¹ for every n below 2⁷⁸.
const tinyRow = 0x1p-540

// rowBound returns the bound of one embedding row x: any row y as long gives
// |fl(x·y)| ≤ fl(rowBound(x)·rowBound(y)) for the dot product summed in any
// order, with or without fused multiply-adds.
//
// A float dot product of length n is within γₙ·Σ|xᵢyᵢ| plus n·2⁻¹⁰⁷⁵ of
// underflow of the exact one, γₙ = n·u/(1−n·u) with u = 2⁻⁵³, and Σ|xᵢyᵢ| ≤
// ‖x‖‖y‖ (Cauchy–Schwarz). The norm is computed on x scaled by a power of two
// that puts its largest entry in [½, 4): the scaling is exact, the squares
// neither overflow nor (for any entry that matters) underflow, where a naive
// sum of squares would lose a 1e−160 row whose product with a 1e10 row is
// representable. The sum and the square root lose at most γₙ₊₁ relatively;
// the factor 1 + (n+16)·2⁻⁴⁸ covers that, γₙ and the roundings of the slack,
// the floor and the final product many times over, and boundFloor the
// underflow. A row too small to scale (below tinyRow) is bounded by the floor
// alone.
func rowBound(x []float64) float64 {
	var m float64
	for _, v := range x {
		m = max(m, math.Abs(v))
	}
	switch {
	case !(m < math.Inf(1)): // NaN or an infinite entry
		return m
	case m < tinyRow:
		return 2 * boundFloor
	}
	// 2ᵏ·m ∈ [½, 4): m is normal, and k ≥ −1022 keeps 2ᵏ and 2⁻ᵏ normal.
	k := max(1022-int(math.Float64bits(m)>>52), -1022)
	scale, unscale := math.Float64frombits(uint64(1023+k)<<52), math.Float64frombits(uint64(1023-k)<<52)
	var s float64
	for _, v := range x {
		y := v * scale
		s += y * y
	}
	slack := 1 + float64(len(x)+16)*0x1p-48
	return math.Sqrt(s)*unscale*slack + boundFloor
}
