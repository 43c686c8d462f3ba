package eval

import (
	"reflect"
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// TestEvaluatorSelectionInvariance pins the selection engine's contract:
// Results are bitwise-identical across the window-streaming logit selection
// (the batched engine), the bounded-heap-over-full-vector path
// (MultiBlockScorer hidden), and the naive full sort (naiveRank over
// metrics.TopK), for every model kind and workers ∈ {1, 2, 8}.
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
				t.Fatalf("%s workers=%d: logit select %+v != sort %+v", kind, workers, got, ref)
			}
			if got := NewEvaluator(sp).Rank(scalarOnly{m}, 20, workers); got != ref {
				t.Fatalf("%s workers=%d: heap select %+v != sort %+v", kind, workers, got, ref)
			}
		}
	}
}

// TestEvaluatorReuseAcrossRounds checks the candidate cache stays correct as
// the model behind it changes: one Evaluator reused across training steps
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

// TestEvaluatorBuildWorkerInvariance pins the sharded cold build: the packed
// candidate cache — layout and every list — is identical for any worker
// count, and so are the metrics ranked from it.
func TestEvaluatorBuildWorkerInvariance(t *testing.T) {
	d := data.Generate(data.Tiny, 13)
	sp := d.Split(rng.New(4), 0.2)
	m := trainedModel(t, models.KindMF, sp)
	ref := NewEvaluatorWorkers(sp, 1)
	refRank := ref.Rank(m, 20, 1)
	for _, workers := range []int{2, 3, 8} {
		e := NewEvaluatorWorkers(sp, workers)
		if !reflect.DeepEqual(e.cache, ref.cache) {
			t.Fatalf("workers=%d: candidate cache differs from serial build", workers)
		}
		if got := e.Rank(m, 20, workers); got != refRank {
			t.Fatalf("workers=%d: metrics %+v != serial %+v", workers, got, refRank)
		}
	}
}

// TestEvaluatorCandidatesExcludeTrain checks the cache against the mask it
// replaced: every cached candidate list is exactly the ascending complement
// of the user's training positives.
func TestEvaluatorCandidatesExcludeTrain(t *testing.T) {
	d := data.Generate(data.Tiny, 7)
	sp := d.Split(rng.New(9), 0.2)
	e := NewEvaluator(sp)
	if e.Users() == 0 {
		t.Fatal("no users cached")
	}
	for i, u := range e.users {
		cand := e.cache.List(i)
		if want := sp.NumItems - len(sp.Train[u]); len(cand) != want {
			t.Fatalf("user %d: %d candidates, want %d", u, len(cand), want)
		}
		prev := -1
		for _, v32 := range cand {
			v := int(v32)
			if v <= prev {
				t.Fatalf("user %d: candidates not strictly ascending at %d", u, v)
			}
			prev = v
			if sp.InTrain(u, v) {
				t.Fatalf("user %d: cached candidate %d is a training positive", u, v)
			}
		}
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
