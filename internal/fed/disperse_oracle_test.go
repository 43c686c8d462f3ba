package fed

// The per-client scalar dispersal engine, moved here verbatim from server.go
// when the batched engine became the only production path. It is the
// reference oracle the live engine is compared against at the engine
// boundary — per-user D̃ᵢ on a trained server (TestDisperseMatchesScalarOracle)
// — and must not be edited to follow the production engine. Every score in
// it is a per-item probability: σ of a one-user block over the client's list
// (scoreItems), which the models package pins bitwise to each model's
// per-item oracle.

import (
	"ptffedrec/internal/bitset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/rng"
)

// disperseScratch is per-worker reusable storage for the dispersal loop, so
// a worker's whole share of clients runs with a handful of allocations total.
type disperseScratch struct {
	eligible []int
	top      []int
}

// disperse builds D̃ᵢ for one client (Eq. 9): µα items by update-frequency
// confidence plus (1−µ)α hard items by server score, all outside the client's
// current upload, scored by the hidden model. The Table VII ablations replace
// either half with uniformly random eligible items.
//
// ds is a stream derived per (round, client) by the trainer. Giving every
// client its own stream — instead of consuming a shared server stream in
// visit order — is what lets the dispersal loop run on a worker pool while
// seeded runs stay reproducible for any worker count. disperse itself only
// reads server state (and the caller-owned scratch), so concurrent calls for
// distinct clients are safe once the model's scoring cache is warm.
func (sv *Server) disperse(tgt disperseTarget, ds *rng.Stream, plan *dispersalPlan, scratch *disperseScratch) []comm.Prediction {
	alpha := sv.cfg.Alpha
	if alpha <= 0 {
		return nil
	}
	// The oracle probes a bitset it builds itself from the target's list, so
	// it shares no walk with the production engine.
	excl := bitset.New(sv.numItems)
	for _, v := range tgt.excl {
		excl.Add(v)
	}
	excluded := excl.Contains

	nConf, nHard, confRandom, hardRandom := disperseArms(sv.cfg)

	// The random ablation arms and the hard half both need the eligible set
	// as a slice; the pure-confidence path gets by on the bitset alone.
	var eligible []int
	if nHard > 0 || (nConf > 0 && confRandom) {
		eligible = scratch.eligible[:0]
		for v := 0; v < sv.numItems; v++ {
			if !excluded(v) {
				eligible = append(eligible, v)
			}
		}
		scratch.eligible = eligible
		if len(eligible) == 0 {
			return nil
		}
	}

	items := make([]int, 0, alpha)

	// Confidence half: highest update frequency, via the round-scoped global
	// ranking filtered by this client's eligibility.
	if nConf > 0 {
		if confRandom {
			k := nConf * 2
			if k > len(eligible) {
				k = len(eligible)
			}
			var unfilled int
			items, unfilled = pickItems(items, rng.SampleSlice(ds, eligible, k), nConf)
			items, _ = pickItems(items, eligible, unfilled)
		} else {
			items = confWalkItems(items, plan.confRank, excluded, nConf)
		}
	}

	// Hard half: highest server-predicted score for this user. Partial
	// selection with a bounded heap: the conf half can overlap the score
	// ranking by at most len(items), so the top (nHard + len(items)) prefix
	// is guaranteed to contain nHard non-chosen items when enough exist.
	if nHard > 0 {
		if hardRandom {
			k := nHard * 3
			if k > len(eligible) {
				k = len(eligible)
			}
			var unfilled int
			items, unfilled = pickItems(items, rng.SampleSlice(ds, eligible, k), nHard)
			items, _ = pickItems(items, eligible, unfilled)
		} else {
			scratch.top = topKByScore(scratch.top, eligible, scoreItems(sv.model, tgt.id, eligible), nHard+len(items))
			items, _ = pickItems(items, scratch.top, nHard)
		}
	}

	scores := scoreItems(sv.model, tgt.id, items)
	preds := make([]comm.Prediction, len(items))
	for i, v := range items {
		preds[i] = comm.Prediction{User: tgt.id, Item: v, Score: scores[i]}
	}
	return preds
}

// topKByScore returns the k highest-scoring items ordered by
// (score desc, item asc) — the exact order a stable descending sort of an
// ascending item list produces. items must be in ascending id order (the
// eligible set always is), which makes (score desc, index asc) — the shared
// selection kernel's order — coincide with (score desc, item asc). dst is
// reused when it has capacity.
func topKByScore(dst, items []int, scores []float64, k int) []int {
	dst = metrics.TopKInto(dst, scores, k)
	for i, idx := range dst {
		dst[i] = items[idx]
	}
	return dst
}
