package metrics

import (
	"math"
	"slices"
	"testing"

	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
)

// invertedLo and invertedHi are adjacent doubles whose σ inverts:
// nn.Sigmoid(invertedLo) = 0.2648598947004648 > 0.2648598947004647 =
// nn.Sigmoid(invertedHi).
const (
	invertedLo = -1.0208601135704396
	invertedHi = -1.0208601135704394
)

// TestInvertedPairIsInverted pins the premise the band and the selector fix
// rest on: the computed σ is not monotone.
func TestInvertedPairIsInverted(t *testing.T) {
	if math.Nextafter(invertedLo, 0) != invertedHi {
		t.Fatalf("%v and %v are not adjacent doubles", invertedLo, invertedHi)
	}
	if lo, hi := nn.Sigmoid(invertedLo), nn.Sigmoid(invertedHi); !(lo > hi) {
		t.Fatalf("σ(%v) = %v, σ(%v) = %v: no longer inverted", invertedLo, lo, invertedHi, hi)
	}
}

// TestLogitTopKSelectorInvertedPair is the selector's non-monotone case: the
// larger logit comes first, so a reject test of "logit ≤ the root's logit"
// drops the second push, whose σ is the larger.
func TestLogitTopKSelectorInvertedPair(t *testing.T) {
	logits := []float64{invertedHi, invertedLo}
	want := probTopK(logits, 1)
	var sel LogitTopKSelector
	sel.Reset(1)
	sel.PushRun(0, logits)
	if got := sel.Into(nil); !slices.Equal(got, want) || want[0] != 1 {
		t.Fatalf("PushRun kept %v, σ order keeps %v (want [1])", got, want)
	}
	if got := logitPushAll(&sel, logits, 1); !slices.Equal(got, want) {
		t.Fatalf("Push kept %v, σ order keeps %v", got, want)
	}
}

// bandPoints are logits across every regime LogitBand distinguishes: the
// inverted pair and σ's negative branch where adjacent doubles invert, ±0,
// both sides of the tail bound's takeover and of hi's cut-off near 26,
// saturation at 1, the edge of the normal floats near −708, ±Inf.
var bandPoints = []float64{
	invertedLo, invertedHi, -1.5, -0.75, -0.5000000000000001, -1.9999999999999998,
	0, math.Copysign(0, -1), 5e-324, 1e-300, 0.5, 1.9, 5, 20, 25.5, 26.1, 27, 30, 36.7, 37, 40, 700, 800,
	-30, -700, -707.9, -708, -708.1, -745, -750, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
}

// TestLogitBand pins LogitBand's promise: it returns nn.Sigmoid(t) bit for
// bit, and no logit outside [lo, hi] compares the wrong way with t under
// nn.Sigmoid. For each of bandPoints and 300 draws
// in [−45, 45], it sweeps the 2 000 doubles just below lo and just above hi,
// and 200 points spread over the rest of the line. Each inverted pair of
// adjacent doubles it finds near the points must lie inside each other's
// bands, and at moderate logits the band must stay narrow, or the engines
// would compare exact σ for ordinary candidates.
func TestLogitBand(t *testing.T) {
	s := rng.New(41)
	points := slices.Clone(bandPoints)
	for i := 0; i < 300; i++ {
		points = append(points, s.Float64()*90-45)
	}
	for _, x := range []float64{invertedLo, invertedHi} {
		if _, lo, hi := LogitBand(x); !(lo <= invertedLo && invertedHi <= hi) {
			t.Fatalf("LogitBand(%v) = [%v, %v] leaves out its inverted neighbour", x, lo, hi)
		}
	}
	check := func(tt, x float64) {
		_, lo, hi := LogitBand(tt)
		pt, px := nn.Sigmoid(tt), nn.Sigmoid(x)
		if x < lo && !(px < pt) {
			t.Fatalf("t=%v band [%v, %v]: x=%v below lo but σ(x)=%v ≥ σ(t)=%v", tt, lo, hi, x, px, pt)
		}
		if x > hi && !(px > pt) {
			t.Fatalf("t=%v band [%v, %v]: x=%v above hi but σ(x)=%v ≤ σ(t)=%v", tt, lo, hi, x, px, pt)
		}
	}
	for _, tt := range points {
		p, lo, hi := LogitBand(tt)
		if math.Float64bits(p) != math.Float64bits(nn.Sigmoid(tt)) {
			t.Fatalf("LogitBand(%v) returns σ = %v, nn.Sigmoid gives %v", tt, p, nn.Sigmoid(tt))
		}
		if !(lo <= tt && tt <= hi) {
			t.Fatalf("LogitBand(%v) = [%v, %v] does not hold t", tt, lo, hi)
		}
		if math.Abs(tt) <= 5 && hi-lo > 1e-8 {
			t.Fatalf("LogitBand(%v) = [%v, %v] is %v wide", tt, lo, hi, hi-lo)
		}
		for x, i := math.Nextafter(lo, math.Inf(-1)), 0; i < 2000 && !math.IsInf(lo, 0); i++ {
			check(tt, x)
			x = math.Nextafter(x, math.Inf(-1))
		}
		for x, i := math.Nextafter(hi, math.Inf(1)), 0; i < 2000 && !math.IsInf(hi, 0); i++ {
			check(tt, x)
			x = math.Nextafter(x, math.Inf(1))
		}
		for i := 0; i < 200; i++ {
			check(tt, s.Normal(0, 300))
		}
		for x, i := tt, 0; i < 64 && !math.IsInf(x, 0); i++ {
			if y := math.Nextafter(x, math.Inf(1)); nn.Sigmoid(x) > nn.Sigmoid(y) {
				if _, lx, hx := LogitBand(x); !(lx <= y && y <= hx) {
					t.Fatalf("inverted pair %v, %v: %v outside LogitBand(%v) = [%v, %v]", x, y, y, x, lx, hx)
				}
				if _, ly, hy := LogitBand(y); !(ly <= x && x <= hy) {
					t.Fatalf("inverted pair %v, %v: %v outside LogitBand(%v) = [%v, %v]", x, y, x, y, ly, hy)
				}
			}
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	if _, lo, hi := LogitBand(math.NaN()); lo == lo || hi == hi {
		t.Fatalf("LogitBand(NaN) = [%v, %v], want NaN edges", lo, hi)
	}
}

// TestHitMetricsMatchesListMetrics holds HitMetrics to RecallAtK and
// NDCGAtK bit for bit: random rankings of up to 60 candidates with up to 25
// relevant items, some relevant items outside the candidates, cutoffs from 0
// past the list's length.
func TestHitMetricsMatchesListMetrics(t *testing.T) {
	s := rng.New(43)
	for trial := 0; trial < 2000; trial++ {
		n := s.Intn(60)
		ranked := s.Perm(n)
		relevant := map[int]bool{}
		for i, m := 0, s.Intn(26); i < m; i++ {
			relevant[s.Intn(n+10)] = true
		}
		k := s.Intn(n + 25)
		kk := min(k, n)
		var ranks []int
		for r, v := range ranked[:kk] {
			if relevant[v] {
				ranks = append(ranks, r)
			}
		}
		recall, ndcg := HitMetrics(ranks, len(relevant), kk)
		if want := RecallAtK(ranked, relevant, k); recall != want {
			t.Fatalf("trial %d: recall %v, RecallAtK %v", trial, recall, want)
		}
		if want := NDCGAtK(ranked, relevant, k); ndcg != want {
			t.Fatalf("trial %d: ndcg %v, NDCGAtK %v", trial, ndcg, want)
		}
	}
}
