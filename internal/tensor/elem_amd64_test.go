package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestAdamQuotientCheck drives the AVX-512 Adam body's quotient proof
// (adamProofAVX512, assembled from the ADAM_PROOF macro the body runs)
// with exact rational arithmetic. The divisors b are every bias correction
// bc₁ and bc₂ of steps 1–5000, 2⁻⁶⁰ and 1, and, outside the proof's domain,
// where it must prove no lane, ±0, the bias corrections of steps −1 and
// −2, 2⁻⁶¹, 2 and NaN; the dividends a are four values
// of every binade, subnormals included, with both signs, ±0, ±Inf and NaN,
// each against eight divisors, and quotients a/b within two units in the
// last place of a power of two. Each (a, b) lane set offers eight q: RN(a/b)
// (from math/big), both its neighbours, one unit further each way, the
// powers of two at and above |RN(a/b)|'s binade, and the quotient
// ADAM_QUOTIENT computes. The proof must keep no lane whose stored value
// is not RN(a/b) bit for bit, and must prove every lane of a ±0 dividend,
// RN(a/b) itself wherever 2⁻⁹⁰⁰ < |RN(a/b)| < ∞ and RN(a/b) is not a power
// of two, and ADAM_QUOTIENT's q in nearly every lane of that range, or the
// body would divide as often as the AVX2 one.
func TestAdamQuotientCheck(t *testing.T) {
	if !adamWide {
		t.Skip("no AVX-512 Adam body on this host")
	}
	divisors := []float64{0x1p-60, 1, 0, math.Copysign(0, -1), 0x1p-61, 2, defaultNaN()}
	for st := -2; st <= 5000; st++ {
		b := NewAdamStep(1, st, false).bias
		divisors = append(divisors, b.bc1, b.bc2)
	}
	r := rand.New(rand.NewSource(9))
	var c quotientCheck
	for i, a := range proofDividends(r) {
		for j := range 8 {
			c.run(t, a, divisors[((i*8+j)*7919)%len(divisors)])
		}
	}
	for _, b := range divisors {
		for _, k := range []int{r.Intn(121) - 60, r.Intn(1700) - 800} {
			a0 := math.Ldexp(b, k)
			for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
				a := a0
				for range 3 {
					c.run(t, a, b)
					c.run(t, -a, b)
					a = math.Nextafter(a, dir)
				}
			}
		}
	}
	rate := float64(c.fastProved) / float64(c.fastLanes)
	t.Logf("%d lane sets; ADAM_QUOTIENT's q proved in %d of %d normal-range lanes (%.4f %%)",
		c.sets, c.fastProved, c.fastLanes, 100*rate)
	if rate < 0.99 {
		t.Fatalf("ADAM_QUOTIENT's q proved in %.2f %% of normal-range lanes, want ≥ 99 %%", 100*rate)
	}
}

// proofDividends returns four values of every binade from the smallest
// subnormal's to the largest — its power of two, 1.5 times it, its largest
// value and a random one — with both signs, then ±0, ±Inf and NaN.
func proofDividends(r *rand.Rand) []float64 {
	var as []float64
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		for _, a := range []float64{p, math.Ldexp(1.5, e), math.Nextafter(math.Ldexp(1, e+1), 0), math.Ldexp(1+r.Float64(), e)} {
			as = append(as, a, -a)
		}
	}
	return append(as, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), defaultNaN())
}

// quotientCheck runs lane sets through adamProofAVX512 and counts them.
type quotientCheck struct {
	sets, fastLanes, fastProved int
}

// run checks one dividend and divisor against the proof, as documented on
// TestAdamQuotientCheck.
func (c *quotientCheck) run(t *testing.T, a, b float64) {
	t.Helper()
	c.sets++
	as, bh := [8]float64{a, a, a, a, a, a, a, a}, proofScale(b)
	if bh == 0 {
		qs := [8]float64{a / b, a, 0, b, 1, -1, math.Inf(1), defaultNaN()}
		if mask := adamProofAVX512(&as, &qs, b, bh); mask != 0 {
			t.Fatalf("a=%v b=%v, outside the proof's domain: lanes %08b proved", a, b, mask)
		}
		return
	}
	finite := !math.IsInf(a, 0) && !math.IsNaN(a)
	want := a / b
	if finite && a != 0 {
		var q big.Rat
		q.Quo(new(big.Rat).SetFloat64(a), new(big.Rat).SetFloat64(b))
		if want, _ = q.Float64(); math.Float64bits(want) != math.Float64bits(a/b) {
			t.Fatalf("a=%v b=%v: math/big's RN(a/b) = %v, the divider's %v", a, b, want, a/b)
		}
	}
	y := 1 / b
	q0 := a * y
	fast := math.FMA(math.FMA(-b, q0, a), y, q0)
	frac, exp := math.Frexp(want)
	pow := math.Copysign(math.Ldexp(1, exp-1), want)
	lo, hi := math.Nextafter(want, math.Inf(-1)), math.Nextafter(want, math.Inf(1))
	qs := [8]float64{want, lo, hi, math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1)), pow, 2 * pow, fast}
	offered := qs
	mask := adamProofAVX512(&as, &qs, b, bh)
	normal := finite && math.Abs(want) > 0x1p-900 && !math.IsInf(want, 0)
	for i, q := range offered {
		proved := mask>>i&1 == 1
		switch {
		case proved && (!finite || math.Float64bits(qs[i]) != math.Float64bits(want)):
			t.Fatalf("a=%v (%#x) b=%v (%#x) q=%v (%#x): proved, stored %v (%#x), RN(a/b) = %v (%#x)",
				a, math.Float64bits(a), b, math.Float64bits(b), q, math.Float64bits(q),
				qs[i], math.Float64bits(qs[i]), want, math.Float64bits(want))
		case !proved && a == 0:
			t.Fatalf("a=%v b=%v q=%v: a ±0 dividend left unproved", a, b, q)
		case !proved && normal && frac != 0.5 && math.Float64bits(q) == math.Float64bits(want):
			t.Fatalf("a=%v b=%v: RN(a/b) = %v (%#x) left unproved", a, b, want, math.Float64bits(want))
		}
	}
	if normal {
		c.fastLanes++
		if mask>>7&1 == 1 {
			c.fastProved++
		}
	}
}
