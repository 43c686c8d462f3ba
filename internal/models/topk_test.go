package models

import (
	"reflect"
	"testing"

	"ptffedrec/internal/metrics"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// logitSelect ranks items for user u the way the evaluator and the dispersal
// engine do: the user's logit row streamed, index-ascending, into a
// LogitTopKSelector.
func logitSelect(mbs MultiBlockScorer, sel *metrics.LogitTopKSelector, u int, items []int, k int) []int {
	row := tensor.New(1, len(items))
	mbs.ScoreUsersBlockLogitsInto(row, []int{u}, items)
	sel.Reset(k)
	for j, l := range row.Data {
		sel.Push(j, l)
	}
	return sel.Into(nil)
}

// requireLogitSelectMatchesSort compares logitSelect with the
// score-everything-then-sort reference: metrics.TopK over the per-item
// oracle's probabilities.
func requireLogitSelectMatchesSort(t *testing.T, m Recommender, sel *metrics.LogitTopKSelector, u int, items []int, k int) {
	t.Helper()
	got := logitSelect(m, sel, u, items, k)
	want := metrics.TopK(m.(perItemOracle).scoreItemsOracle(u, items), k)
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s u=%d n=%d k=%d: logit selection %v != sort %v", m.Name(), u, len(items), k, got, want)
	}
}

// TestScoreBlockTopKMatchesSort pins logit-domain selection over a batched
// logit row against the score-everything-then-sort reference for every model
// kind, across candidate lists that straddle NeuMF's chunk boundaries and k
// values from 0 to beyond the list length.
func TestScoreBlockTopKMatchesSort(t *testing.T) {
	var sel metrics.LogitTopKSelector
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m := blockModel(t, kind, false)
		for _, items := range raggedLists(blockConfig().NumItems) {
			for _, k := range []int{0, 1, 5, 20, len(items), len(items) + 7} {
				for u := 0; u < 3; u++ {
					requireLogitSelectMatchesSort(t, m, &sel, u, items, k)
				}
			}
		}
	}
}

// TestScoreBlockTopKTieHeavy drives the same comparison through candidate
// lists drawn from four distinct items, so every score repeats many times and
// tie-breaking (index asc within equal scores) decides most of the selection.
func TestScoreBlockTopKTieHeavy(t *testing.T) {
	s := rng.New(5)
	var sel metrics.LogitTopKSelector
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m := blockModel(t, kind, false)
		for trial := 0; trial < 100; trial++ {
			pool := s.SampleInts(blockConfig().NumItems, 4)
			items := make([]int, 1+s.Intn(200))
			for i := range items {
				items[i] = pool[s.Intn(len(pool))]
			}
			requireLogitSelectMatchesSort(t, m, &sel, trial%3, items, 1+s.Intn(30))
		}
	}
}
