package fed

import (
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// disperseForEligible crafts a dispersal target whose exclusion set rules
// out all but wantEligible items and returns the live engine's dispersal for
// it.
func disperseForEligible(t *testing.T, tr *Trainer, wantEligible int, seed uint64) ([]comm.Prediction, []int) {
	t.Helper()
	sp := tr.split
	var excl []int
	for v := 0; v < sp.NumItems-wantEligible; v++ {
		excl = append(excl, v)
	}
	eligible := make([]int, 0, wantEligible)
	for v := sp.NumItems - wantEligible; v < sp.NumItems; v++ {
		eligible = append(eligible, v)
	}
	sc := tr.Server().newDisperseBatchScratch()
	slots := sc.slots[:1]
	slots[0].tgt = disperseTarget{id: 0, excl: excl}
	slots[0].ds = rng.New(seed).Derive("disperse-test")
	tr.Server().disperseBatch(slots, tr.Server().buildDispersalPlan(), sc)
	return slots[0].preds, eligible
}

// TestDisperseRandomArmsFillAlpha is the regression test for the random
// ablation arms' under-fill bug: the 2×nConf / 3×nHard oversample could
// collide with already-chosen items and leave D̃ᵢ below α. With an
// adversarial Mu (0.9 → nConf=9, nHard=1, so three random hard draws face
// nine already-chosen items) and a tiny eligible set — tighter than any real
// upload leaves, which is why the target is crafted rather than observed —
// every arm must produce exactly min(α, |eligible|) distinct eligible items,
// for every stream.
func TestDisperseRandomArmsFillAlpha(t *testing.T) {
	sp := tinySplit(t)
	for _, mode := range []DisperseMode{
		DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom,
	} {
		cfg := fastConfig(models.KindNeuMF)
		cfg.Rounds = 1
		cfg.Alpha = 10
		cfg.Mu = 0.9
		cfg.Disperse = mode
		tr, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.RunRound(0)
		// |eligible| both above and below α, including the α boundary and
		// the empty set.
		for _, nEligible := range []int{12, 10, 7, 1, 0} {
			want := cfg.Alpha
			if nEligible < want {
				want = nEligible
			}
			for seed := uint64(1); seed <= 50; seed++ {
				preds, eligible := disperseForEligible(t, tr, nEligible, seed)
				if len(preds) != want {
					t.Fatalf("mode %s |eligible|=%d seed %d: dispersed %d items, want %d",
						mode, nEligible, seed, len(preds), want)
				}
				seen := map[int]bool{}
				okItem := map[int]bool{}
				for _, v := range eligible {
					okItem[v] = true
				}
				for _, p := range preds {
					if seen[p.Item] {
						t.Fatalf("mode %s seed %d: duplicate item %d in D̃ᵢ", mode, seed, p.Item)
					}
					seen[p.Item] = true
					if !okItem[p.Item] {
						t.Fatalf("mode %s seed %d: dispersed ineligible item %d", mode, seed, p.Item)
					}
				}
			}
		}
	}
}
