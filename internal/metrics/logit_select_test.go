package metrics

import (
	"math"
	"reflect"
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

// FuzzLogitTopKSelectorMatchesProbability is the engine-equivalence fuzz: for
// arbitrary byte-derived logit vectors mapped onto a scale that spans both
// saturated tails and the dense centre of σ, logit-domain selection must
// equal σ-then-select exactly.
func FuzzLogitTopKSelectorMatchesProbability(f *testing.F) {
	f.Add([]byte{}, 5)
	f.Add([]byte{0, 0, 0, 0}, 2)
	f.Add([]byte{255, 254, 253, 252, 251}, 3)
	f.Add([]byte{128, 127, 129, 128, 128}, 4)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 20)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if k < 0 || k > len(data)+8 {
			return
		}
		logits := make([]float64, len(data))
		for i, b := range data {
			// [-51, 51]: bytes near the ends saturate σ, the middle stays
			// distinct, and repeated bytes give exact duplicates.
			logits[i] = (float64(b) - 127.5) * 0.4
		}
		want := probTopK(logits, k)
		var sel LogitTopKSelector
		if got := logitPushAll(&sel, logits, k); len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("logit selection %v, want %v (logits %v, k %d)", got, want, logits, k)
		}
	})
}
