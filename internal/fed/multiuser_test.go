package fed

import (
	"fmt"
	"slices"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// naiveEligible is the reference definition the random arms' eligible list
// must reproduce: walk the item universe probing the exclusion list — the
// scalar dispersal oracle's construction.
func naiveEligible(dst []int, numItems int, excl []int) []int {
	dst = dst[:0]
	for v := 0; v < numItems; v++ {
		if !slices.Contains(excl, v) {
			dst = append(dst, v)
		}
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
// on the server's current state, every user's D̃ᵢ from disperseUsers, with
// the user's latest upload in record as the exclusion set — over the whole
// population in one call and again split at an odd offset, so batch grouping
// cannot leak — must equal, bitwise, what the per-client oracle builds from
// the same upload, the same plan and the same per-client stream through
// per-item scoring.
func requireDispersalsMatchOracle(t *testing.T, label string, tr *Trainer, record *mapUploadStore) {
	t.Helper()
	sv := tr.Server()
	if w, ok := sv.model.(models.Warmer); ok {
		w.WarmScoring()
	}
	plan := sv.buildDispersalPlan()
	root := rng.New(99).Derive("oracle")
	stream := func(id int) *rng.Stream { return root.DeriveN("client", id) }
	ids := allSlots(tr.split.NumUsers)
	uploads := make([][]comm.Prediction, len(ids))
	for i, id := range ids {
		uploads[i] = record.View(id)
	}

	live := make([][]comm.Prediction, len(ids))
	sv.disperseUsers(ids, uploads, plan, stream, func(i int, preds []comm.Prediction) { live[i] = preds })
	const cut = 7
	sv.disperseUsers(ids[:cut], uploads[:cut], plan, stream, func(i int, preds []comm.Prediction) {
		if !slices.Equal(preds, live[i]) {
			t.Fatalf("%s: user %d's dispersal depends on batch grouping", label, ids[i])
		}
	})
	sv.disperseUsers(ids[cut:], uploads[cut:], plan, stream, func(i int, preds []comm.Prediction) {
		if !slices.Equal(preds, live[cut+i]) {
			t.Fatalf("%s: user %d's dispersal depends on batch grouping", label, ids[cut+i])
		}
	})

	scratch := &disperseScratch{}
	var tgt disperseTarget
	for _, id := range ids {
		tgt = sv.disperseTargetInto(id, uploads[id], tgt.excl)
		want := sv.disperse(tgt, stream(id), plan, scratch)
		if !slices.Equal(live[id], want) {
			t.Fatalf("%s: user %d: live engine dispersed\n  %v\noracle says\n  %v", label, id, live[id], want)
		}
	}
}

// TestDisperseMatchesScalarOracle is the dispersal engine's reference pin:
// for every server model kind and every ablation arm, on a server trained
// through the live round path (partial participation, so some users have an
// upload on record and some have none), per-user D̃ᵢ equals the scalar oracle's
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
			record := newMapStoreOracle()
			for round := 0; round < cfg.Rounds; round++ {
				record.SetOutcomes(observeRound(tr, round, nil, nil).outcomes)
				for _, chunk := range []int{1024, 16} { // Tiny has 60 items -> 4 chunks, last one ragged
					disperseScoreChunk = chunk
					requireDispersalsMatchOracle(t, fmt.Sprintf("%s/%s round %d chunk %d", server, mode, round, chunk), tr, record)
				}
			}
		}
	}
}

// liveEligible runs one target through the live engine on a random-arm
// server and returns the eligible list the engine built for it in the
// worker's scratch, nil when it skipped the target as having nothing
// eligible. It also holds the dispersal itself to the exclusion set, so a
// stale entry in the list would surface as an ineligible item in D̃ᵢ.
func liveEligible(t *testing.T, sv *Server, sc *disperseBatchScratch, tgt disperseTarget, ds *rng.Stream) []int {
	t.Helper()
	if !disperseNeedsStreams(sv.cfg) {
		t.Fatalf("arm %s builds no eligible list", sv.cfg.Disperse)
	}
	slots := sc.slots[:1]
	slots[0].tgt, slots[0].ds = tgt, ds
	sv.disperseBatch(slots, sv.buildDispersalPlan(), sc)
	if slots[0].skip {
		return nil
	}
	for _, p := range slots[0].preds {
		if slices.Contains(tgt.excl, p.Item) {
			t.Fatalf("user %d: dispersed excluded item %d", tgt.id, p.Item)
		}
	}
	return sc.eligible
}

// TestEligCacheMatchesNaiveWalk pins the eligible list's contract on live
// protocol state: after real rounds, the list the engine builds for every
// client equals the scalar oracle's item-universe walk, and when a new upload
// changes the exclusion set the list follows it.
func TestEligCacheMatchesNaiveWalk(t *testing.T) {
	sp := tinySplit(t)
	cfg := multiuserConfig(models.KindNeuMF, DisperseAllRandom)
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uploads := runRoundUploads(tr, 0)

	sv := tr.Server()
	sc := sv.newDisperseBatchScratch()
	ds := rng.New(3).Derive("elig-walk")
	var walk []int
	var tgt disperseTarget
	for _, c := range tr.Clients() {
		tgt = sv.disperseTargetInto(c.ID, uploads[c.ID], tgt.excl)
		got := liveEligible(t, sv, sc, tgt, ds)
		walk = naiveEligible(walk, sp.NumItems, uploadItems(sp.NumItems, uploads[c.ID]))
		if !slices.Equal(got, walk) {
			t.Fatalf("client %d: engine built %v, walk says %v", c.ID, got, walk)
		}
	}

	// Another round re-uploads: the exclusion set changes and the list
	// follows.
	upload0 := uploads[0]
	uploads = runRoundUploads(tr, 1)
	if slices.Equal(uploads[0], upload0) {
		t.Fatal("round 1 left client 0's upload unchanged; nothing to follow")
	}
	tgt = sv.disperseTargetInto(0, uploads[0], nil)
	got := liveEligible(t, sv, sc, tgt, ds)
	walk = naiveEligible(walk, sp.NumItems, uploadItems(sp.NumItems, uploads[0]))
	if !slices.Equal(got, walk) {
		t.Fatalf("client 0 after round 1: engine built %v, walk says %v", got, walk)
	}
}

// FuzzEligCache drives one worker's reused scratch list through interleaved
// targets whose exclusion lists grow, shrink to nil and hold items on both
// sides of 64. Every build must equal the naive walk over that target's list
// alone: nothing of the previous target's list — longer or shorter — may
// survive into it.
func FuzzEligCache(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x81, 0, 4, 5, 0x82, 2, 6, 7, 0})
	f.Add([]byte{0x80, 0x80, 0x80, 1, 1, 1})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 0x87, 7})
	const numItems, nClients = 70, 8
	sv := storeTestServer(f, nClients, numItems, func(c *Config) { c.Disperse = DisperseAllRandom })
	f.Fuzz(func(t *testing.T, ops []byte) {
		sc := sv.newDisperseBatchScratch()
		ds := rng.New(uint64(len(ops))).Derive("fuzz-elig")
		excls := make([][]int, nClients)
		for i := range excls {
			excls[i] = []int{i, 64 + i%6}
		}
		for step, op := range ops {
			id := int(op&0x7f) % nClients
			if op&0x80 != 0 {
				// A new upload lands: usually one more excluded item, now and
				// then a target with no exclusion list at all.
				if (step+int(op))%5 == 0 {
					excls[id] = nil
				} else if v := (step*13 + int(op)) % numItems; !slices.Contains(excls[id], v) {
					excls[id] = append(excls[id], v)
					slices.Sort(excls[id])
				}
			}
			got := liveEligible(t, sv, sc, disperseTarget{id: id, excl: excls[id]}, ds)
			if want := naiveEligible(nil, numItems, excls[id]); !slices.Equal(got, want) {
				t.Fatalf("step %d user %d: engine built %v, walk says %v", step, id, got, want)
			}
		}
	})
}
