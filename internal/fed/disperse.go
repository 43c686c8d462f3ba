package fed

// This file is the round-scoped dispersal engine: the D̃ᵢ assembly helpers
// and the multi-user batched path, which groups one worker's clients into
// score batches, selects the hard half through eval.BlockTopK — the batched
// top-K engine over the same scoring contract evaluation counts ranks
// through — and re-scores each client's chosen items
// as a one-user block, both through models.MultiBlockScorer's one method.
// Eligibility (Eq. 9's "vⱼ ∉ V̂ᵗᵢ") is the complement of the target's upload
// in the dispersal's own round, held as its sorted, de-duplicated item list
// in per-slot scratch; only the random ablation arms want the eligible items
// themselves, which they build per client into worker scratch with one run
// walk. Nothing is kept between calls.
//
// Determinism contract: D̃ᵢ is the same for every batch grouping, worker
// count, model kind, and ablation arm, and bitwise-identical to the
// per-client scalar reference kept in disperse_oracle_test.go. Scores come
// from kernels whose per-element accumulation order matches per-item scoring;
// the hard-half selection pushes exactly the eligible (item, score) pairs a
// per-client selection sees, under the same (score desc, item asc) total
// order; and each client's random draws come from its own per-(round, client)
// stream, consumed in conf-then-hard order.

import (
	"slices"

	"ptffedrec/internal/candset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/rng"
)

// disperseBatchClients is how many clients one worker scores together: the
// multi-user GEMM loads each item-embedding row once per batch instead of
// once per client, and its interleaved accumulators hide FP-add latency.
// Purely a scheduling knob — the batch grouping never changes results.
const disperseBatchClients = 16

// disperseScoreChunk is the item-window width of the hard half's BlockTopK:
// only batch×chunk logits are ever materialised. A var so tests can shrink it
// to force multi-chunk selections on small catalogues.
var disperseScoreChunk = 1024

// disperseArms derives Eq. 9's per-arm split for a config: the confidence
// and hard half sizes and whether each half draws random items. The one
// definition shared by the round engine's stream gating and the dispersal
// engine, so the "consumes randomness" predicate can never drift from the
// consumer (a drifted gate would hand a nil stream to a drawing arm).
func disperseArms(cfg *Config) (nConf, nHard int, confRandom, hardRandom bool) {
	nConf = int(cfg.Mu * float64(cfg.Alpha))
	nHard = cfg.Alpha - nConf
	confRandom = cfg.Disperse == DisperseNoConf || cfg.Disperse == DisperseAllRandom
	hardRandom = cfg.Disperse == DisperseNoHard || cfg.Disperse == DisperseAllRandom
	return nConf, nHard, confRandom, hardRandom
}

// disperseNeedsStreams reports whether the configured dispersal arm consumes
// per-client randomness: only the ablation arms that replace the confidence
// or hard half with uniform draws do — and they are the only ones that want
// the eligible set as a list.
func disperseNeedsStreams(cfg *Config) bool {
	nConf, nHard, confRandom, hardRandom := disperseArms(cfg)
	return (nConf > 0 && confRandom) || (nHard > 0 && hardRandom)
}

// chosenIn reports whether v is already in D̃ᵢ. α is small (paper: 30), so a
// linear scan beats any set structure.
func chosenIn(items []int, v int) bool {
	for _, w := range items {
		if w == v {
			return true
		}
	}
	return false
}

// pickItems moves up to n non-chosen items from ranked into D̃ᵢ, returning
// the grown set and how many slots it could not fill.
func pickItems(items []int, ranked []int, n int) ([]int, int) {
	for _, v := range ranked {
		if n == 0 {
			break
		}
		if chosenIn(items, v) {
			continue
		}
		items = append(items, v)
		n--
	}
	return items, n
}

// drawItems is one random half of D̃ᵢ: up to n items from an oversample×n
// uniform draw over the client's eligible list. The oversample (2×nConf /
// 3×nHard draws) can collide with already-chosen items and leave the first
// pick short of n, so a second pick walks the eligible list itself and tops
// D̃ᵢ up to min(α, |eligible|). The walk draws nothing from the client's
// random stream, which keeps the draws, and so the result, the same at every
// worker count.
func drawItems(items []int, ds *rng.Stream, eligible []int, n, oversample int) []int {
	k := min(n*oversample, len(eligible))
	items, unfilled := pickItems(items, rng.SampleSlice(ds, eligible, k), n)
	items, _ = pickItems(items, eligible, unfilled)
	return items
}

// confWalkItems appends up to n items from the round's confidence ranking,
// skipping the client's excluded items — the order-preserving filter that
// makes the shared global ranking reproduce a per-client stable sort.
func confWalkItems(items []int, confRank []int, excluded func(int) bool, n int) []int {
	for _, v := range confRank {
		if n == 0 {
			break
		}
		if excluded(v) {
			continue
		}
		items = append(items, v)
		n--
	}
	return items
}

// disperseSlot carries one dispersal target through a score batch.
type disperseSlot struct {
	tgt   disperseTarget
	ds    *rng.Stream
	items []int // chosen D̃ᵢ items, conf half then hard half
	preds []comm.Prediction
	skip  bool // eligible set empty: D̃ᵢ is nil
}

// disperseBatchScratch is one worker's reusable state for the batched
// dispersal path: the hard half's BlockTopK and its per-call lists, the
// re-scoring block, and the assembly buffers. Nothing here is allocated per
// batch once warm; each slot's exclusion list is refilled in place for the
// next batch's target.
type disperseBatchScratch struct {
	slots    []disperseSlot
	topk     *eval.BlockTopK
	users    []int   // the batch's user ids, one selection row each
	lists    [][]int // their exclusion lists
	block    oneUserBlock
	top      []int
	eligible []int // one client's ascending eligible set (random arms only)
}

func (sv *Server) newDisperseBatchScratch() *disperseBatchScratch {
	return &disperseBatchScratch{
		slots: make([]disperseSlot, disperseBatchClients),
		topk:  eval.NewBlockTopK(sv.ident, disperseBatchClients, disperseScoreChunk, sv.cfg.Alpha),
		block: oneUserBlock{logits: make([]float64, sv.cfg.Alpha)},
	}
}

// disperseBatch builds D̃ᵢ for one worker's batch of clients (Eq. 9), with
// the scoring passes batched across the whole group:
//
//  1. eligibility is the complement of the target's sorted upload list:
//     every arm that selects takes |eligible| as numItems − len(list), the
//     confidence walk probes the list by binary search, and only the random
//     arms build the eligible items — one run walk per client into the
//     worker's scratch;
//  2. the confidence half walks the round's shared ranking per client; a
//     random half draws from the client's own stream, conf before hard;
//  3. the hard half is one eval.BlockTopK selection over the batch: windowed
//     multi-user logit GEMM calls, each client's upload list walked across
//     the window and the runs between its items pushed into that client's
//     logit-domain selector;
//  4. each client's chosen items are re-scored as a one-user logit block,
//     σ applied per item (oneUserBlock, shared with the client's upload).
//
// Each slot's preds is left ready for the wire.
func (sv *Server) disperseBatch(slots []disperseSlot, plan *dispersalPlan, sc *disperseBatchScratch) {
	nConf, nHard, confRandom, hardRandom := disperseArms(sv.cfg)
	draws := disperseNeedsStreams(sv.cfg)

	// Phase 1: eligibility, the confidence half and a random hard half, per
	// client. The pure-confidence path gets by on the list alone.
	for si := range slots {
		s := &slots[si]
		s.items = s.items[:0]
		s.preds = nil
		excl := s.tgt.excl
		s.skip = (draws || nHard > 0) && len(excl) == sv.numItems
		if s.skip {
			continue
		}
		if draws {
			sc.eligible = candset.AppendComplementSorted(sc.eligible[:0], sv.numItems, excl)
		}
		if nConf > 0 {
			if confRandom {
				s.items = drawItems(s.items, s.ds, sc.eligible, nConf, 2)
			} else {
				s.items = confWalkItems(s.items, plan.confRank, func(v int) bool {
					_, found := slices.BinarySearch(excl, v)
					return found
				}, nConf)
			}
		}
		if nHard > 0 && hardRandom {
			s.items = drawItems(s.items, s.ds, sc.eligible, nHard, 3)
		}
	}

	// Phase 2: the deterministic hard half. Every slot asks for the top α,
	// which holds every eligible item when fewer are eligible; the conf half
	// holds min(nConf, eligible) items, so the prefix holds nHard items
	// outside the conf half whenever that many are eligible.
	if nHard > 0 && !hardRandom {
		// A skipped slot (nothing eligible) is selected too and pushes
		// nothing; its row is read by nobody.
		sc.users, sc.lists = sc.users[:0], sc.lists[:0]
		for si := range slots {
			sc.users = append(sc.users, slots[si].tgt.id)
			sc.lists = append(sc.lists, slots[si].tgt.excl)
		}
		sc.topk.Select(sv.model, sc.users, sc.lists)
		for si := range slots {
			if s := &slots[si]; !s.skip {
				sc.top = sc.topk.Into(si, sc.top)
				s.items, _ = pickItems(s.items, sc.top, nHard)
			}
		}
	}

	// Phase 3: re-score each client's chosen items as a one-user block.
	for si := range slots {
		if s := &slots[si]; !s.skip {
			s.preds = sc.block.predictions(sv.model, s.tgt.id, s.tgt.id, s.items)
		}
	}
}

// disperseUsers builds D̃ᵢ for every listed user on the calling goroutine,
// disperseBatchClients at a time, and hands each result to emit with the
// user's index in ids. uploads[i] is user ids[i]'s upload in the dispersal's
// round — Eq. 9's V̂ᵗᵢ — so nothing here touches (or materialises) a client;
// stream returns user id's per-(round, client) stream, or nil for the arms
// that draw nothing. The call only reads server state — workers run it
// concurrently on disjoint id ranges once the model's scoring cache is warm.
func (sv *Server) disperseUsers(ids []int, uploads [][]comm.Prediction, plan *dispersalPlan, stream func(id int) *rng.Stream, emit func(i int, preds []comm.Prediction)) {
	sc := sv.newDisperseBatchScratch()
	for b := 0; b < len(ids); b += disperseBatchClients {
		slots := sc.slots[:min(disperseBatchClients, len(ids)-b)]
		for i := range slots {
			slots[i].tgt = sv.disperseTargetInto(ids[b+i], uploads[b+i], slots[i].tgt.excl)
			slots[i].ds = stream(ids[b+i])
		}
		sv.disperseBatch(slots, plan, sc)
		for i := range slots {
			emit(b+i, slots[i].preds)
		}
	}
}
