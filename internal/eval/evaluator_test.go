package eval

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"ptffedrec/internal/candset"
	"ptffedrec/internal/data"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// TestEvaluatorSelectionInvariance pins the engine's contract: Results are
// bitwise-identical between the rank-counting engine, one-shot or held, and
// the naive full sort (naiveRank over metrics.TopK), for every model kind and
// workers ∈ {1, 2, 8}.
func TestEvaluatorSelectionInvariance(t *testing.T) {
	d := data.Generate(data.Tiny, 11)
	sp := d.Split(rng.New(2), 0.2)
	for _, kind := range []models.Kind{models.KindMF, models.KindNeuMF, models.KindLightGCN, models.KindNGCF} {
		m := trainedModel(t, kind, sp)
		ref := naiveRank(m, sp, 20)
		if ref.Users == 0 {
			t.Fatalf("%s: no users evaluated", kind)
		}
		for _, workers := range []int{1, 2, 8} {
			if got := RankingWorkers(m, sp, 20, workers); got != ref {
				t.Fatalf("%s workers=%d: one-shot %+v != sort %+v", kind, workers, got, ref)
			}
			if got := NewEvaluator(sp).Rank(m, 20, workers); got != ref {
				t.Fatalf("%s workers=%d: held evaluator %+v != sort %+v", kind, workers, got, ref)
			}
		}
	}
}

// TestEvaluatorReuseAcrossRounds checks a held Evaluator stays correct as the
// model behind it changes: one Evaluator reused across training steps
// must match a fresh per-call evaluation every time.
func TestEvaluatorReuseAcrossRounds(t *testing.T) {
	d := data.Generate(data.Tiny, 13)
	sp := d.Split(rng.New(4), 0.2)
	m, err := models.New(models.KindMF, models.Config{
		NumUsers: sp.NumUsers, NumItems: sp.NumItems, Dim: 8, LR: 1e-2, Layers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var batch []models.Sample
	for u := 0; u < sp.NumUsers; u++ {
		for _, v := range sp.Train[u] {
			batch = append(batch, models.Sample{User: u, Item: v, Label: 1})
		}
	}
	e := NewEvaluator(sp)
	for round := 0; round < 3; round++ {
		m.TrainBatch(batch)
		cached := e.Rank(m, 20, 2)
		if fresh := RankingWorkers(m, sp, 20, 2); cached != fresh {
			t.Fatalf("round %d: cached evaluator %+v != fresh %+v", round, cached, fresh)
		}
	}
}

// TestEvaluatorCandidatesExcludeTrain checks the candidate walk against the
// mask it replaced. A recording scorer sees exactly the evaluated users. A
// scorer that puts every train item on top and every held-out item at the
// bottom, at a cutoff past the catalogue, must give every user's j-th
// held-out item rank candidates − |test| + j exactly — a train item counted
// as a candidate would push it down, a candidate skipped pull it up — for
// windows that cut the train lists at several places.
func TestEvaluatorCandidatesExcludeTrain(t *testing.T) {
	d := data.Generate(data.Tiny, 7)
	sp := d.Split(rng.New(9), 0.2)
	e := NewEvaluator(sp)
	if e.Users() == 0 {
		t.Fatal("no users evaluated")
	}
	seen := make([]bool, sp.NumUsers)
	e.Rank(logitFunc(func(u, v int) float64 {
		seen[u] = true
		return 0
	}), 20, 1)
	for u, s := range seen {
		if want := len(sp.Test[u]) > 0; s != want {
			t.Fatalf("user %d scored %v, want %v (held-out items: %d)", u, s, want, len(sp.Test[u]))
		}
	}

	defer func(b, c int) { evalUsersBatch, evalScoreChunk = b, c }(evalUsersBatch, evalScoreChunk)
	trainTopTestBottom := logitFunc(func(u, v int) float64 {
		switch {
		case sp.InTrain(u, v):
			return 1
		case sp.InTest(u, v):
			return -1
		}
		return 0
	})
	recalls := make([]float64, e.Users())
	ndcgs := make([]float64, e.Users())
	for _, chunk := range []int{48, 7, 1} {
		evalUsersBatch, evalScoreChunk = 3, chunk
		ord := e.newScanOrder(trainTopTestBottom)
		e.rankBatched(trainTopTestBottom, &ord, 0, e.Users(), sp.NumItems, recalls, ndcgs)
		for i, u := range e.users {
			cands, m := sp.NumItems-len(sp.Train[u]), len(sp.Test[u])
			ranks := make([]int, m)
			for j := range ranks {
				ranks[j] = cands - m + j
			}
			if r, n := metrics.HitMetrics(ranks, m, cands); recalls[i] != r || ndcgs[i] != n {
				t.Fatalf("chunk=%d user %d: recall, ndcg = %v, %v; want %v, %v (held-out ranks %v)",
					chunk, u, recalls[i], ndcgs[i], r, n, ranks)
			}
		}
	}
}

// RankingWorkers evaluates the scorer on a split at cutoff k with the given
// worker count (<= 0 means GOMAXPROCS): a throwaway Evaluator ranked once.
// For each user with held-out items, every non-train item is scored.
// Per-round callers hold an Evaluator instead.
func RankingWorkers(s models.MultiBlockScorer, sp *data.Split, k, workers int) Result {
	return NewEvaluator(sp).Rank(s, k, workers)
}

// logitFunc is a multi-user scorer whose logit for (user, item) is f(u, v).
type logitFunc func(u, v int) float64

func (f logitFunc) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users, items []int) {
	for i, u := range users {
		for j, v := range items {
			dst.Row(i)[j] = f(u, v)
		}
	}
}

// TestEvaluatorRetainsNoPerUserState is the memory pin: what an Evaluator
// reports keeping is the two lists — 8 bytes per item and per evaluated user,
// the latter at most doubled by append's growth headroom — and building one
// allocates no more than that plus the user list's outgrown arrays, so a U×V
// candidate cache (166 KB here, against ≈6 KB) can come back neither in
// CacheBytes nor beside it.
func TestEvaluatorRetainsNoPerUserState(t *testing.T) {
	d := data.Generate(data.ML100KSmall, 11)
	sp := d.Split(rng.New(2), 0.2)
	e := NewEvaluator(sp)
	users, items := int64(e.Users()), int64(sp.NumItems)
	if got, max := e.CacheBytes(), 8*(2*users+items)+1024; got > max {
		t.Fatalf("CacheBytes = %d for %d users × %d items, want ≤ %d", got, users, items, max)
	}
	// TotalAlloc is process-wide, so take the quietest of a few builds: a
	// stray allocation elsewhere inflates one reading, a cache inflates all.
	built := int64(math.MaxInt64)
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewEvaluator(sp)
		runtime.ReadMemStats(&after)
		built = min(built, int64(after.TotalAlloc-before.TotalAlloc))
	}
	if max := 8*(4*users+items) + 4096; built > max {
		t.Fatalf("NewEvaluator allocated %d bytes for %d users × %d items, want ≤ %d", built, users, items, max)
	}
}

// TestEvaluatorAllocsPerUser is the hot-loop allocation regression test: with
// a block-scoring model and warm per-worker scratch, the evaluation loop must
// allocate only the per-call fixtures (result slots and one scratch), never
// per user — the ranked slice and relevance map that used to be rebuilt for
// every user now live in the scratch.
func TestEvaluatorAllocsPerUser(t *testing.T) {
	d := data.Generate(data.ML100KSmall, 11)
	sp := d.Split(rng.New(2), 0.2)
	m := trainedModel(t, models.KindMF, sp)
	e := NewEvaluator(sp)
	users := e.Users()
	if users < 100 {
		t.Fatalf("want a split with ≥100 evaluated users, got %d", users)
	}
	e.Rank(m, 20, 1) // warm lazily sized buffers inside the model
	allocs := testing.AllocsPerRun(10, func() {
		e.Rank(m, 20, 1)
	})
	// One worker's fixed per-call cost — recall/ndcg slots, the scratch and
	// its buffers/map, the fork-join closures — measures ≈25 regardless of
	// split size. Nothing may scale with the user count.
	const maxPerCall = 30
	if allocs > maxPerCall {
		t.Fatalf("Rank allocates %.0f times per call for %d users (> %d): per-user state leaked out of the scratch",
			allocs, users, maxPerCall)
	}
	if perUser := allocs / float64(users); perUser > 0.25 {
		t.Fatalf("Rank allocates %.2f per user, want < 0.25", perUser)
	}
}

// FuzzEvalWindowWalkMatchesComplement pins BlockTopK's candidate walk
// against the one definition of "candidate set": for any strictly ascending
// exclusion list (bit v of mask, cycled, says whether v is excluded) and
// window widths 1, 7 and 64, the (item, logit) pairs the walk pushes are
// AppendComplementSorted's list, in order. The selector is the only observer,
// so the pairs are read through it three ways: logits falling with v rank the
// pushed items ascending, logits rising with v rank them descending (an item
// pushed with a neighbour's logit breaks either), and equal logits with a
// short cutoff keep the first pushed (the tie-safe contract's loser is the
// newcomer), which an out-of-order walk would change.
func FuzzEvalWindowWalkMatchesComplement(f *testing.F) {
	f.Add(100, []byte{0})    // empty exclusion list
	f.Add(100, []byte{0xff}) // everything is excluded: nothing to push
	f.Add(1, []byte{1})
	// Every multiple of 8 and the item before it: 63 and 64 sit at hi−1 and
	// lo of the 64-wide windows, 7 and 56 at lo and 55 at hi−1 of 7-wide ones.
	f.Add(130, []byte{0x81})
	f.Add(200, []byte{0, 0, 0, 0, 0, 0, 0, 0xe0, 0x07})                  // the run 61..66 straddles 64
	f.Add(64, []byte{0xe0, 0x01})                                        // runs 5..8, 21..24, … straddle 7-wide edges
	f.Add(65, []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0}) // only 0 and 64 are free
	f.Fuzz(func(t *testing.T, n int, mask []byte) {
		if n <= 0 || n > 1024 || len(mask) == 0 {
			t.Skip()
		}
		var excl []int
		for v := 0; v < n; v++ {
			if mask[v/8%len(mask)]>>(v%8)&1 == 1 {
				excl = append(excl, v)
			}
		}
		want := candset.AppendComplementSorted[int](nil, n, excl)
		items := identity(n)
		for _, window := range []int{1, 7, 64} {
			// Logits slope·v/n: distinct, and small enough that σ keeps them so.
			ranked := func(slope float64, k int) []int {
				tk := NewBlockTopK(items, 1, window, k)
				tk.Select(logitFunc(func(_, v int) float64 { return slope * float64(v) / float64(n) }), []int{0}, [][]int{excl})
				return tk.Into(0, nil)
			}
			if got := ranked(-1, n); !slices.Equal(got, want) {
				t.Fatalf("window=%d excl=%v: falling logits ranked %v, want %v", window, excl, got, want)
			}
			got := ranked(1, n)
			slices.Reverse(got)
			if !slices.Equal(got, want) {
				t.Fatalf("window=%d excl=%v: rising logits ranked (reversed) %v, want %v", window, excl, got, want)
			}
			if got := ranked(0, 3); !slices.Equal(got, want[:min(3, len(want))]) {
				t.Fatalf("window=%d excl=%v: equal logits kept %v, want the first of %v", window, excl, got, want)
			}
		}
	})
}

// identity returns the item list 0..n-1.
func identity(n int) []int {
	items := make([]int, n)
	for v := range items {
		items[v] = v
	}
	return items
}
