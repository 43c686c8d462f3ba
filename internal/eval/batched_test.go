package eval

import (
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// TestBatchedEngineInvariance is the batched engine's pin: the multi-user
// logit engine must produce Results bitwise-identical to the naive
// score-everything-then-sort reference (naiveRank over metrics.TopK), for
// every model kind and workers ∈ {1, 2, 8}.
// The batch and window knobs are shrunk so even the tiny split exercises
// partial batches, multi-window selections, and window boundaries that split
// candidate runs.
func TestBatchedEngineInvariance(t *testing.T) {
	defer func(b, c int) { evalUsersBatch, evalScoreChunk = b, c }(evalUsersBatch, evalScoreChunk)
	evalUsersBatch = 3
	evalScoreChunk = 48

	d := data.Generate(data.Tiny, 11)
	sp := d.Split(rng.New(2), 0.2)
	for _, kind := range []models.Kind{models.KindMF, models.KindNeuMF, models.KindLightGCN, models.KindNGCF} {
		m := trainedModel(t, kind, sp)
		ref := naiveRank(m, sp, 20)
		if ref.Users == 0 {
			t.Fatalf("%s: no users evaluated", kind)
		}
		e := NewEvaluator(sp)
		for _, workers := range []int{1, 2, 8} {
			if got := e.Rank(m, 20, workers); got != ref {
				t.Fatalf("%s workers=%d: batched %+v != naive sort %+v", kind, workers, got, ref)
			}
		}
	}
}

// TestBatchedEngineBatchSizeInvariance pins the scheduling-knob contract:
// the batch grouping and window width must never change results, including
// degenerate one-user batches and windows narrower than a candidate gap.
func TestBatchedEngineBatchSizeInvariance(t *testing.T) {
	defer func(b, c int) { evalUsersBatch, evalScoreChunk = b, c }(evalUsersBatch, evalScoreChunk)

	d := data.Generate(data.Tiny, 7)
	sp := d.Split(rng.New(5), 0.2)
	m := trainedModel(t, models.KindMF, sp)

	evalUsersBatch, evalScoreChunk = 16, 1024
	ref := NewEvaluator(sp).Rank(m, 20, 1)
	for _, shape := range []struct{ batch, chunk int }{
		{1, 1024}, {2, 7}, {5, 64}, {16, 1}, {64, 200},
	} {
		evalUsersBatch, evalScoreChunk = shape.batch, shape.chunk
		if got := NewEvaluator(sp).Rank(m, 20, 2); got != ref {
			t.Fatalf("batch=%d chunk=%d: %+v != reference %+v", shape.batch, shape.chunk, got, ref)
		}
	}
}

// TestBatchedEngineStreamingFallback checks that the one-shot RankingWorkers
// (its own throwaway evaluator) matches a held Evaluator's result exactly.
func TestBatchedEngineStreamingFallback(t *testing.T) {
	d := data.Generate(data.Tiny, 9)
	sp := d.Split(rng.New(3), 0.2)
	m := trainedModel(t, models.KindLightGCN, sp)
	e := NewEvaluator(sp)
	cached := e.Rank(m, 20, 2)
	if oneShot := RankingWorkers(m, sp, 20, 2); oneShot != cached {
		t.Fatalf("one-shot %+v != cached batched %+v", oneShot, cached)
	}
}
