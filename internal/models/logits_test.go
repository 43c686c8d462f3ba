package models

import (
	"testing"

	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// TestScoreBlockLogitsContract pins the sigmoid-placement contract on every
// model kind (dense and lazy): ScoreBlockInto must equal ScoreBlockLogitsInto
// followed by the element-wise boundary sigmoid, bitwise — the identity that
// lets selection run on raw logits and pay σ only for winners.
func TestScoreBlockLogitsContract(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		for _, lazy := range []bool{false, true} {
			m := blockModel(t, kind, lazy)
			bs, ok := m.(BlockScorer)
			if !ok {
				t.Fatalf("%s lazy=%v does not implement BlockScorer", kind, lazy)
			}
			for _, items := range raggedLists(blockConfig().NumItems) {
				for u := 0; u < 3; u++ {
					logits := make([]float64, len(items))
					probs := make([]float64, len(items))
					if len(items) > 0 {
						bs.ScoreBlockLogitsInto(logits, u, items)
						bs.ScoreBlockInto(probs, u, items)
					}
					for i := range items {
						if want := nn.Sigmoid(logits[i]); probs[i] != want {
							t.Fatalf("%s lazy=%v u=%d item %d: ScoreBlockInto=%v, σ(logit)=%v (logit=%v)",
								kind, lazy, u, items[i], probs[i], want, logits[i])
						}
					}
				}
			}
		}
	}
}

// TestScoreUsersBlockLogitsContract pins the multi-user side of the contract
// on every model kind: each row of ScoreUsersBlockLogitsInto must equal the
// single-user ScoreBlockLogitsInto for that user bitwise (row independence —
// the property that makes batched evaluation bitwise-identical to per-user
// evaluation). σ of those rows against the per-user σ path is
// TestScoreUsersBlockMatchesScalar.
func TestScoreUsersBlockLogitsContract(t *testing.T) {
	cfg := blockConfig()
	users := []int{0, 2, 1, 4, 2}
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		for _, lazy := range []bool{false, true} {
			m := blockModel(t, kind, lazy)
			mbs, ok := m.(MultiBlockScorer)
			if !ok {
				t.Fatalf("%s lazy=%v does not implement MultiBlockScorer", kind, lazy)
			}
			for _, items := range raggedLists(cfg.NumItems) {
				if len(items) == 0 {
					continue
				}
				logits := tensor.New(len(users), len(items))
				mbs.ScoreUsersBlockLogitsInto(logits, users, items)
				row := make([]float64, len(items))
				for r, u := range users {
					mbs.(BlockScorer).ScoreBlockLogitsInto(row, u, items)
					for i := range items {
						if logits.At(r, i) != row[i] {
							t.Fatalf("%s lazy=%v user %d item %d: batched logit %v != single-user logit %v",
								kind, lazy, u, items[i], logits.At(r, i), row[i])
						}
					}
				}
			}
		}
	}
}
