package fed

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ptffedrec/internal/bitset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// naiveEligible is the reference definition the eligibility cache must
// reproduce: walk the item universe probing the exclusion bitset — exactly
// the scalar dispersal oracle's construction.
func naiveEligible(dst []int, numItems int, lastUpload *bitset.Set) []int {
	dst = dst[:0]
	for v := 0; v < numItems; v++ {
		if lastUpload != nil && lastUpload.Contains(v) {
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// multiuserConfig is the oracle suite's base: small enough that the full
// kind × arm sweep stays fast (MF clients keep local training
// cheap; dispersal coverage does not depend on the client model), adversarial
// enough to exercise conf/hard collisions and the fill backstop.
func multiuserConfig(server models.Kind, mode DisperseMode) Config {
	cfg := fastConfig(server)
	cfg.ClientModel = models.KindMF
	cfg.Rounds = 2
	cfg.EvalEvery = 1
	cfg.Disperse = mode
	cfg.Mu = 0.4
	return cfg
}

// requireDispersalsMatchOracle compares the live dispersal engine with the
// scalar reference oracle (disperse_oracle_test.go) at the engine boundary:
// on the server's current state, every user's D̃ᵢ from disperseUsers — over
// the whole population in one call and again split at an odd offset, so batch
// grouping cannot leak — must equal, bitwise, what the per-client oracle
// builds from the same plan and the same per-client stream through per-item
// scoring.
func requireDispersalsMatchOracle(t *testing.T, label string, tr *Trainer) {
	t.Helper()
	sv := tr.server
	if w, ok := sv.model.(models.Warmer); ok {
		w.WarmScoring()
	}
	plan := sv.buildDispersalPlan()
	root := rng.New(99).Derive("oracle")
	stream := func(id int) *rng.Stream { return root.DeriveN("client", id) }
	ids := allSlots(tr.split.NumUsers)

	live := make([][]comm.Prediction, len(ids))
	sv.disperseUsers(ids, plan, stream, func(i int, preds []comm.Prediction) { live[i] = preds })
	const cut = 7
	sv.disperseUsers(ids[:cut], plan, stream, func(i int, preds []comm.Prediction) {
		if !slices.Equal(preds, live[i]) {
			t.Fatalf("%s: user %d's dispersal depends on batch grouping", label, ids[i])
		}
	})
	sv.disperseUsers(ids[cut:], plan, stream, func(i int, preds []comm.Prediction) {
		if !slices.Equal(preds, live[cut+i]) {
			t.Fatalf("%s: user %d's dispersal depends on batch grouping", label, ids[cut+i])
		}
	})

	scratch := &disperseScratch{}
	for _, id := range ids {
		var tgt disperseTarget
		tgt, scratch.excl = sv.disperseTargetInto(id, scratch.excl)
		want := sv.disperse(tgt, stream(id), plan, scratch)
		if !slices.Equal(live[id], want) {
			t.Fatalf("%s: user %d: live engine dispersed\n  %v\noracle says\n  %v", label, id, live[id], want)
		}
	}
}

// TestDisperseMatchesScalarOracle is the dispersal engine's reference pin:
// for every server model kind and every ablation arm, on a server trained
// through the live round path (partial participation, so some users have a
// stored upload and some have none), per-user D̃ᵢ equals the scalar oracle's
// — after every round, at the production score-chunk width and at one narrow
// enough to force several ragged chunks on the tiny catalogue.
func TestDisperseMatchesScalarOracle(t *testing.T) {
	defer func(old int) { disperseScoreChunk = old }(disperseScoreChunk)
	kinds := []models.Kind{models.KindMF, models.KindNeuMF, models.KindNGCF, models.KindLightGCN}
	modes := []DisperseMode{DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom}
	if testing.Short() {
		kinds = []models.Kind{models.KindNeuMF, models.KindLightGCN}
		modes = []DisperseMode{DisperseConfHard, DisperseAllRandom}
	}
	sp := tinySplit(t)
	for _, server := range kinds {
		for _, mode := range modes {
			cfg := multiuserConfig(server, mode)
			cfg.ClientFraction = 0.6
			tr, err := NewTrainer(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < cfg.Rounds; round++ {
				tr.RunRound(round)
				for _, chunk := range []int{1024, 16} { // Tiny has 60 items -> 4 chunks, last one ragged
					disperseScoreChunk = chunk
					requireDispersalsMatchOracle(t, fmt.Sprintf("%s/%s round %d chunk %d", server, mode, round, chunk), tr)
				}
			}
		}
	}
}

// TestEligCacheMatchesNaiveWalk pins the eligibility cache's contract on
// live protocol state: after real rounds, every client's cache-served
// eligible set equals the scalar oracle's item-universe walk, cache hits serve
// the identical list without rebuilding, and a new upload invalidates.
func TestEligCacheMatchesNaiveWalk(t *testing.T) {
	sp := tinySplit(t)
	cfg := multiuserConfig(models.KindNeuMF, DisperseConfHard)
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunRound(0)

	sv := tr.Server()
	var walk []int
	var bit *bitset.Set
	for _, c := range tr.Clients() {
		// The target's exclusion set comes from the server's upload store; in
		// a fault-free run it must carry the same item set the client
		// remembers sending, so the naive walk probes c.lastUpload — the
		// comparison doubles as a store-vs-client consistency check.
		var tgt disperseTarget
		tgt, bit = sv.disperseTargetInto(c.ID, bit)
		got := sv.elig.eligible(tgt, sp.NumItems)
		walk = naiveEligible(walk, sp.NumItems, c.lastUpload)
		if len(got) != len(walk) {
			t.Fatalf("client %d: cache served %d eligible, walk found %d", c.ID, len(got), len(walk))
		}
		for i, v := range got {
			if int(v) != walk[i] {
				t.Fatalf("client %d: eligible[%d] = %d, walk says %d", c.ID, i, v, walk[i])
			}
		}
		// Cache hit: same generation must serve the same backing array.
		again := sv.elig.eligible(tgt, sp.NumItems)
		if len(again) > 0 && &again[0] != &got[0] {
			t.Fatalf("client %d: cache rebuilt on unchanged generation", c.ID)
		}
	}

	// Another round re-uploads: generations move, entries rebuild, and the
	// walk equivalence still holds.
	gen0 := sv.upGen[0]
	tr.RunRound(1)
	c := tr.Clients()[0]
	if sv.upGen[0] == gen0 {
		t.Fatal("upload generation did not advance with a new upload")
	}
	tgt, _ := sv.disperseTargetInto(0, nil)
	got := sv.elig.eligible(tgt, sp.NumItems)
	walk = naiveEligible(walk, sp.NumItems, c.lastUpload)
	if !reflect.DeepEqual(candsetWiden(got), walk) {
		t.Fatalf("client %d after round 1: cache %v != walk %v", c.ID, got, walk)
	}
}

// candsetWiden converts an int32 list to []int for DeepEqual comparisons.
func candsetWiden(xs []int32) []int {
	out := make([]int, len(xs))
	for i, v := range xs {
		out[i] = int(v)
	}
	return out
}
