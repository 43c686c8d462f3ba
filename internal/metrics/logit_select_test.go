package metrics

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
)

// probTopK is the probability-domain reference for the logit selector: σ
// applied to every logit, then the stable-sort TopK — exactly the computation
// the logit-domain engine replaces.
func probTopK(logits []float64, k int) []int {
	probs := make([]float64, len(logits))
	for i, l := range logits {
		probs[i] = nn.Sigmoid(l)
	}
	return TopK(probs, k)
}

func logitPushAll(sel *LogitTopKSelector, logits []float64, k int) []int {
	sel.Reset(k)
	for i, l := range logits {
		sel.Push(i, l)
	}
	return sel.Into(nil)
}

// adversarialLogits builds a vector designed to break a selector that trusts
// logit comparisons through the sigmoid: saturated tails (σ rounds to exactly
// 0 or 1, so distinct logits collapse), math.Nextafter neighbours (adjacent
// representable logits whose probabilities collapse because σ' compresses),
// exact duplicates, and a few moderate values that stay distinct.
func adversarialLogits(s *rng.Stream, n int) []float64 {
	logits := make([]float64, n)
	for i := range logits {
		switch s.Intn(5) {
		case 0: // saturated high: σ == 1.0 for all of these
			logits[i] = 40 + s.Float64()
		case 1: // saturated low: σ == 0.0
			logits[i] = -40 - s.Float64()
		case 2: // nextafter pair seeds: collapse under σ almost surely
			base := s.Float64()*8 - 4
			logits[i] = math.Nextafter(base, math.Inf(1))
		case 3: // exact duplicates from a tiny grid
			logits[i] = float64(s.Intn(4)) - 2
		default:
			logits[i] = s.Normal(0, 3)
		}
	}
	return logits
}

// TestLogitTopKSelectorMatchesProbability is the tie-safety pin for the
// logit-domain engine: for logit vectors engineered so that σ collapses
// distinct logits to equal probabilities (saturated tails, nextafter
// neighbours, exact duplicates), selecting raw logits must reproduce the
// probability-domain selection exactly — same indices, same order.
func TestLogitTopKSelectorMatchesProbability(t *testing.T) {
	s := rng.New(17)
	var sel LogitTopKSelector
	for trial := 0; trial < 500; trial++ {
		n := 1 + s.Intn(200)
		k := s.Intn(n + 5)
		logits := adversarialLogits(s, n)
		want := probTopK(logits, k)
		got := logitPushAll(&sel, logits, k)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d (n=%d k=%d): logit selection %v != probability selection %v\nlogits: %v",
				trial, n, k, got, want, logits)
		}
	}
}

// TestLogitTopKSelectorCollapsedTies drives the selector through vectors
// where every probability is identical — all logits saturated high — so the
// whole selection is tie-breaking, plus the all-saturated-low and constant
// cases. The selection must be the first k indices, as (prob desc, idx asc)
// demands.
func TestLogitTopKSelectorCollapsedTies(t *testing.T) {
	var sel LogitTopKSelector
	for _, logits := range [][]float64{
		{50, 51, 52, 53, 54, 55, 56, 57},         // σ == 1 everywhere, logits ascending
		{57, 56, 55, 54, 53, 52, 51, 50},         // σ == 1 everywhere, logits descending
		{-50, -51, -52, -53, -54, -55, -56, -57}, // σ == 0 everywhere
		{1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5}, // exact duplicates
	} {
		for k := 0; k <= len(logits)+2; k++ {
			want := probTopK(logits, k)
			got := logitPushAll(&sel, logits, k)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("logits %v k=%d: logit selection %v != probability selection %v",
					logits, k, got, want)
			}
		}
	}
}

// TestLogitTopKSelectorChunkedPush pins the streaming contract the batched
// evaluator and dispersal rely on: pushing the same ascending-index logits in
// arbitrary chunks yields the same selection as a single pass.
func TestLogitTopKSelectorChunkedPush(t *testing.T) {
	s := rng.New(23)
	var sel LogitTopKSelector
	for trial := 0; trial < 200; trial++ {
		n := 1 + s.Intn(300)
		k := 1 + s.Intn(25)
		chunk := 1 + s.Intn(40)
		logits := adversarialLogits(s, n)
		sel.Reset(k)
		for off := 0; off < n; off += chunk {
			end := off + chunk
			if end > n {
				end = n
			}
			for i := off; i < end; i++ {
				sel.Push(i, logits[i])
			}
		}
		got := sel.Into(nil)
		if want := probTopK(logits, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d k=%d chunk=%d): chunked logit selection %v, want %v",
				trial, n, k, chunk, got, want)
		}
	}
}

// TestLogitTopKSelectorResetBacked checks the slab contract: selectors backed
// by segments of shared slabs select identically and never allocate.
func TestLogitTopKSelectorResetBacked(t *testing.T) {
	s := rng.New(29)
	const k, slots = 10, 4
	idx := make([]int, slots*k)
	logit := make([]float64, slots*k)
	prob := make([]float64, slots*k)
	sels := make([]LogitTopKSelector, slots)
	vectors := make([][]float64, slots)
	for i := range vectors {
		vectors[i] = adversarialLogits(s, 120)
	}
	var out []int
	run := func() {
		for i := range sels {
			lo, hi := i*k, (i+1)*k
			sels[i].ResetBacked(k, idx[lo:lo:hi], logit[lo:lo:hi], prob[lo:lo:hi])
			for j, l := range vectors[i] {
				sels[i].Push(j, l)
			}
		}
	}
	run()
	for i := range sels {
		out = sels[i].Into(out)
		if want := probTopK(vectors[i], k); !reflect.DeepEqual(out, want) {
			t.Fatalf("slot %d: slab-backed selection %v, want %v", i, out, want)
		}
	}
	allocs := testing.AllocsPerRun(20, run)
	if allocs != 0 {
		t.Fatalf("slab-backed selections allocate %v times per run", allocs)
	}
}

// ulpLogit maps i in [0, 56) to a logit within 7 ulps of one of four points
// on σ's negative branch, where adjacent doubles collapse or invert: the
// inverted pair's lower logit (i = 7; i = 8 is its upper one), −0.75, −1.5
// and −1.9. A grid of any step never yields adjacent doubles.
func ulpLogit(i int) float64 {
	x := [...]float64{invertedLo, -0.75, -1.5, -1.9}[i/14]
	for d := i%14 - 7; d < 0; d++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	for d := i%14 - 7; d > 0; d-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	return x
}

// FuzzLogitTopKSelectorMatchesProbability is the engine-equivalence fuzz: for
// arbitrary byte-derived logit vectors — bytes below 200 on a grid that spans
// both saturated tails and the dense centre of σ, the rest ulp neighbourhoods
// (ulpLogit) — logit-domain selection must equal σ-then-select exactly.
func FuzzLogitTopKSelectorMatchesProbability(f *testing.F) {
	f.Add([]byte{}, 5)
	f.Add([]byte{0, 0, 0, 0}, 2)
	f.Add([]byte{255, 254, 253, 252, 251}, 3)
	f.Add([]byte{128, 127, 129, 128, 128}, 4)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 20)
	f.Add([]byte{208, 207}, 1) // the inverted pair, larger logit first
	f.Add([]byte{214, 200, 209, 203, 208, 207, 210, 201, 206, 213, 211, 100}, 3)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if k < 0 || k > len(data)+8 {
			return
		}
		logits := make([]float64, len(data))
		for i, b := range data {
			// [-39.8, 40]: bytes near the ends saturate σ, the middle stays
			// distinct, and repeated bytes give exact duplicates.
			logits[i] = (float64(b) - 99.5) * 0.4
			if b >= 200 {
				logits[i] = ulpLogit(int(b) - 200)
			}
		}
		want := probTopK(logits, k)
		var sel LogitTopKSelector
		if got := logitPushAll(&sel, logits, k); len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("logit selection %v, want %v (logits %v, k %d)", got, want, logits, k)
		}
	})
}

// runLogit maps a fuzz byte onto a logit: the specials PushRun's bulk skip
// must treat as Push does — NaN, ±Inf, ±0 — an ulp neighbourhood where σ
// collapses or inverts adjacent doubles (ulpLogit, bytes 200–249), or a grid
// point spanning both saturated tails of σ, where repeated bytes give exact
// duplicates and σ-collapsed ties.
func runLogit(b byte) float64 {
	switch {
	case b == 250:
		return math.NaN()
	case b == 251:
		return math.Inf(1)
	case b == 252:
		return math.Inf(-1)
	case b == 253:
		return 0
	case b == 254:
		return math.Copysign(0, -1)
	case b >= 200 && b < 250:
		return ulpLogit(int(b) - 200)
	}
	return (float64(b) - 125) * 0.4
}

// pushRuns splits logits into runs whose lengths come from cuts (0 an empty
// run) and pushes each with PushRun; the remainder is one last run.
func pushRuns(sel *LogitTopKSelector, logits []float64, cuts []byte, k int) []int {
	sel.Reset(k)
	pos := 0
	for _, c := range cuts {
		end := min(pos+int(c), len(logits))
		sel.PushRun(pos, logits[pos:end])
		pos = end
	}
	sel.PushRun(pos, logits[pos:])
	return sel.Into(nil)
}

// FuzzPushRunMatchesPush pins the bulk form to the per-element one: one
// ascending logit stream, split at arbitrary run boundaries and pushed with
// PushRun, must select exactly what a Push per element selects — NaN, ±Inf,
// ±0, repeated logits, logits equal to the current threshold, σ-collapsed
// ties and σ-inverted neighbours included — and, without a NaN, what
// σ-then-select does.
func FuzzPushRunMatchesPush(f *testing.F) {
	f.Add([]byte{}, []byte{}, 3)
	f.Add([]byte{125, 125, 125, 125, 125, 125}, []byte{1, 0, 2}, 2)
	f.Add([]byte{250, 1, 251, 252, 253, 254, 250, 249, 0, 250}, []byte{3}, 4)
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 0, 1, 2}, []byte{0, 5, 0}, 1)
	s := rng.New(31)
	for trial := 0; trial < 40; trial++ {
		data := make([]byte, s.Intn(600))
		for i := range data {
			if s.Intn(8) == 0 {
				data[i] = byte(250 + s.Intn(5))
			} else {
				data[i] = byte(100 + s.Intn(50)) // dense enough to tie the threshold
			}
		}
		cuts := make([]byte, s.Intn(40))
		for i := range cuts {
			cuts[i] = byte(s.Intn(40))
		}
		f.Add(data, cuts, 1+s.Intn(30))
	}
	f.Add([]byte{208, 207}, []byte{}, 1) // the inverted pair, larger logit first
	dense := make([]byte, 300)
	for i := range dense {
		dense[i] = byte(200 + s.Intn(50))
	}
	f.Add(dense, []byte{7, 0, 33}, 5)
	f.Fuzz(func(t *testing.T, data, cuts []byte, k int) {
		if k < 0 || k > len(data)+8 {
			return
		}
		logits := make([]float64, len(data))
		for i, b := range data {
			logits[i] = runLogit(b)
		}
		var sel LogitTopKSelector
		sel.Reset(k)
		for i, l := range logits {
			sel.Push(i, l)
		}
		want := sel.Into(nil)
		if got := pushRuns(&sel, logits, cuts, k); !slices.Equal(got, want) {
			t.Fatalf("PushRun selection %v, Push selection %v (logits %v, cuts %v, k %d)", got, want, logits, cuts, k)
		}
		if !slices.ContainsFunc(logits, math.IsNaN) {
			if ref := probTopK(logits, k); len(ref) > 0 && !slices.Equal(want, ref) {
				t.Fatalf("Push selection %v, σ-then-select %v (logits %v, k %d)", want, ref, logits, k)
			}
		}
	})
}

// TestPushRunSteadyStateAllocs pins the bulk push at zero allocations once
// the selector's storage has grown to k.
func TestPushRunSteadyStateAllocs(t *testing.T) {
	logits := adversarialLogits(rng.New(37), 4096)
	var sel LogitTopKSelector
	run := func() {
		sel.Reset(20)
		for lo := 0; lo < len(logits); lo += 300 {
			sel.PushRun(lo, logits[lo:min(lo+299, len(logits))])
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("PushRun allocates %v times per selection", allocs)
	}
}

// BenchmarkPushRun times one evaluation-shaped selection — a 4096-item
// catalogue, k = 20, runs of about 340 items between a user's train items —
// pushed element by element and run by run.
func BenchmarkPushRun(b *testing.B) {
	s := rng.New(1)
	logits := make([]float64, 4096)
	for i := range logits {
		logits[i] = s.Normal(0, 3)
	}
	const gap = 341
	var sel LogitTopKSelector
	sel.Reset(20)
	sel.PushRun(0, logits) // grow the heap's storage before timing
	b.Run("push", func(b *testing.B) {
		for b.Loop() {
			sel.Reset(20)
			for lo := 0; lo < len(logits); lo += gap {
				for i := lo; i < min(lo+gap-1, len(logits)); i++ {
					sel.Push(i, logits[i])
				}
			}
		}
	})
	b.Run("run", func(b *testing.B) {
		for b.Loop() {
			sel.Reset(20)
			for lo := 0; lo < len(logits); lo += gap {
				sel.PushRun(lo, logits[lo:min(lo+gap-1, len(logits))])
			}
		}
	})
}
