package fed

import (
	"slices"
	"testing"

	"ptffedrec/internal/bitset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// disperseForEligible crafts a dispersal target whose exclusion set rules
// out all but wantEligible items and returns the live engine's dispersal for
// it.
func disperseForEligible(t *testing.T, tr *Trainer, wantEligible int, seed uint64) ([]comm.Prediction, []int) {
	t.Helper()
	sp := tr.split
	excl := bitset.New(sp.NumItems)
	for v := 0; v < sp.NumItems-wantEligible; v++ {
		excl.Add(v)
	}
	eligible := make([]int, 0, wantEligible)
	for v := sp.NumItems - wantEligible; v < sp.NumItems; v++ {
		eligible = append(eligible, v)
	}
	sc := newDisperseBatchScratch()
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

// TestPushEligibleWindowMatchesPushAndAllocsNothing pins the hard half's run
// pushes to a Push per eligible item, over windows that start and end inside
// bitset words and exclusions at word edges, at both window ends and in
// adjacent pairs — and, once the selector has grown to k, at zero
// allocations per selection.
func TestPushEligibleWindowMatchesPushAndAllocsNothing(t *testing.T) {
	const numItems, window, k = 300, 70, 10
	s := rng.New(5)
	scores := make([]float64, numItems)
	for i := range scores {
		scores[i] = s.Normal(0, 3)
	}
	edges := bitset.New(numItems)
	for _, v := range []int{0, 5, 6, 63, 64, 69, 70, 139, 140, 200, 299} {
		edges.Add(v)
	}
	for _, excl := range []*bitset.Set{nil, bitset.New(numItems), edges} {
		var sel, want metrics.LogitTopKSelector
		run := func() {
			sel.Reset(k)
			for lo := 0; lo < numItems; lo += window {
				hi := min(lo+window, numItems)
				pushEligibleWindow(&sel, excl, scores[lo:hi], lo, hi)
			}
		}
		run()
		want.Reset(k)
		for _, v := range naiveEligible(nil, numItems, excl) {
			want.Push(v, scores[v])
		}
		if got, w := sel.Into(nil), want.Into(nil); !slices.Equal(got, w) {
			t.Fatalf("exclusion %v: run pushes selected %v, per-item pushes %v", excl, got, w)
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("pushEligibleWindow allocates %v times per selection", allocs)
		}
	}
}
