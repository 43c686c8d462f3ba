package models

import (
	"testing"

	"ptffedrec/internal/tensor"
)

// TestScoreUsersBlockLogitsContract pins row independence on every model kind
// (dense and lazy): each row of a ScoreUsersBlockLogitsInto batch must equal
// the same user scored as a batch of one, bitwise — the property that makes
// batched evaluation independent of how users are grouped. σ of those rows
// against the per-item σ path is TestScoreUsersBlockMatchesScalar.
func TestScoreUsersBlockLogitsContract(t *testing.T) {
	cfg := blockConfig()
	users := []int{0, 2, 1, 4, 2}
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		for _, lazy := range []bool{false, true} {
			mbs := blockModel(t, kind, lazy)
			for _, items := range raggedLists(cfg.NumItems) {
				if len(items) == 0 {
					continue
				}
				logits := tensor.New(len(users), len(items))
				mbs.ScoreUsersBlockLogitsInto(logits, users, items)
				one := tensor.New(1, len(items))
				for r, u := range users {
					mbs.ScoreUsersBlockLogitsInto(one, []int{u}, items)
					for i := range items {
						if logits.At(r, i) != one.At(0, i) {
							t.Fatalf("%s lazy=%v user %d item %d: batched logit %v != batch-of-one logit %v",
								kind, lazy, u, items[i], logits.At(r, i), one.At(0, i))
						}
					}
				}
			}
		}
	}
}
