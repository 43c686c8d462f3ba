package eval

import (
	"runtime"
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// trainedModel builds a deterministic scorer with non-trivial scores: an MF
// model trained for one pass over the split's interactions.
func trainedModel(t *testing.T, kind models.Kind, sp *data.Split) models.Recommender {
	t.Helper()
	m, err := models.New(kind, models.Config{
		NumUsers: sp.NumUsers, NumItems: sp.NumItems, Dim: 8, LR: 1e-2, Layers: 2, Seed: 7,
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
	if gm, ok := m.(models.GraphRecommender); ok {
		inc := graph.NewIncremental(sp.NumUsers, sp.NumItems)
		for u := 0; u < sp.NumUsers; u++ {
			var edges []graph.Edge
			for _, v := range sp.Train[u] {
				edges = append(edges, graph.Edge{Item: v, Weight: 1})
			}
			inc.StageUser(u, edges)
		}
		inc.Commit(1)
		gm.SetGraph(inc)
	}
	m.TrainBatch(batch)
	return m
}

// TestRankingWorkersNoTestItems pins the empty-split edge case: a split with
// no held-out items must yield a zero Result at any worker count, as the
// serial evaluator always did, rather than panic in the chunking math.
func TestRankingWorkersNoTestItems(t *testing.T) {
	d := data.Generate(data.Tiny, 11)
	sp := d.Split(rng.New(2), 0.2)
	for u := range sp.Test {
		sp.Test[u] = nil
	}
	zero := logitFunc(func(u, v int) float64 { return 0 })
	for _, workers := range []int{1, 4} {
		if got := RankingWorkers(zero, sp, 20, workers); got != (Result{}) {
			t.Fatalf("workers=%d: got %+v, want zero Result", workers, got)
		}
	}
}

// TestRankingWorkersDeterministic asserts the tentpole guarantee: metrics are
// bitwise-identical for every worker count, including workers=GOMAXPROCS.
func TestRankingWorkersDeterministic(t *testing.T) {
	d := data.Generate(data.Tiny, 11)
	sp := d.Split(rng.New(2), 0.2)
	for _, kind := range []models.Kind{models.KindMF, models.KindNeuMF, models.KindLightGCN, models.KindNGCF} {
		ref := RankingWorkers(trainedModel(t, kind, sp), sp, 20, 1)
		if ref.Users == 0 {
			t.Fatalf("%s: no users evaluated", kind)
		}
		// A fresh model per worker count leaves graph-model scoring caches
		// cold, so the parallel path must warm them before fanning out.
		for _, workers := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
			got := RankingWorkers(trainedModel(t, kind, sp), sp, 20, workers)
			if got != ref {
				t.Fatalf("%s: workers=%d metrics %+v != workers=1 metrics %+v", kind, workers, got, ref)
			}
		}
		if got := RankingWorkers(trainedModel(t, kind, sp), sp, 20, 0); got != ref {
			t.Fatalf("%s: default workers %+v != workers=1 metrics %+v", kind, got, ref)
		}
	}
}
