package fed

// This file is the round-scoped dispersal engine: the D̃ᵢ assembly helpers
// and the multi-user batched path, which groups one worker's clients into
// score batches, drives the hard-half top-K through multi-user GEMM kernels
// and re-scores each client's chosen items as a one-user block, both through
// models.MultiBlockScorer's one method. Eligibility
// (Eq. 9's "vⱼ ∉ V̂ᵗᵢ") is the bitset of the target's upload in the
// dispersal's own round everywhere; only the random ablation arms want it as
// a list, which they build per client into worker scratch with one word walk.
// Nothing is kept between calls.
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
	"math/bits"

	"ptffedrec/internal/bitset"
	"ptffedrec/internal/candset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// disperseBatchClients is how many clients one worker scores together: the
// multi-user GEMM loads each item-embedding row once per batch instead of
// once per client, and its interleaved accumulators hide FP-add latency.
// Purely a scheduling knob — the batch grouping never changes results.
const disperseBatchClients = 16

// disperseScoreChunk is the item-range width of the batched hard-half
// scoring: the engine scores the whole universe for a batch in chunks this
// wide, streaming each chunk's eligible scores into the per-client selectors,
// so only batch×chunk scores are ever materialised. A var so tests can
// shrink it to force multi-chunk selections on small catalogues.
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

// pushEligibleWindow streams one chunk's eligible logits into a selector:
// every item in [lo, hi) outside the exclusion bitset is pushed with its raw
// logit from scoresRow (indexed relative to lo), in ascending item order —
// exactly the push order metrics.LogitTopKSelector's tie-safe contract
// requires. The walk visits the bitset's *set* bits in the chunk — the few
// items the target uploaded, 64 memberships per word load — and pushes each
// gap between them as one PushRun, so eligibility costs bitset words and a
// run per uploaded item, not a push per candidate.
func pushEligibleWindow(sel *metrics.LogitTopKSelector, excluded *bitset.Set, scoresRow []float64, lo, hi int) {
	v := lo
	if excluded != nil {
		words := excluded.Words()
		for base := lo &^ 63; base < hi; base += 64 {
			w := words[base>>6]
			if base < lo {
				w &^= (1 << uint(lo-base)) - 1
			}
			for ; w != 0; w &= w - 1 {
				e := base + bits.TrailingZeros64(w)
				if e >= hi {
					break
				}
				sel.PushRun(v, scoresRow[v-lo:e-lo])
				v = e + 1
			}
		}
	}
	sel.PushRun(v, scoresRow[v-lo:hi-lo])
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

// fillItems backstops the random ablation arms: an oversample (2×nConf /
// 3×nHard draws) can collide with already-chosen items and leave pickItems
// short, which used to under-fill D̃ᵢ below α. A deterministic walk of the
// remaining eligible items tops the set back up to min(α, |eligible|)
// without consuming the client's random stream, so worker-count invariance
// is preserved.
func fillItems(items []int, eligible []int, n int) []int {
	for _, v := range eligible {
		if n == 0 {
			break
		}
		if chosenIn(items, v) {
			continue
		}
		items = append(items, v)
		n--
	}
	return items
}

// drawItems is one random half of D̃ᵢ: up to n items from an oversample×n
// uniform draw over the client's eligible list, topped up by fillItems.
func drawItems(items []int, ds *rng.Stream, eligible []int, n, oversample int) []int {
	k := min(n*oversample, len(eligible))
	items, unfilled := pickItems(items, rng.SampleSlice(ds, eligible, k), n)
	return fillItems(items, eligible, unfilled)
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
	tgt       disperseTarget
	ds        *rng.Stream
	eligCount int   // |eligible| = numItems − |exclusion set|
	items     []int // chosen D̃ᵢ items, conf half then hard half
	preds     []comm.Prediction
	skip      bool // eligible set empty: D̃ᵢ is nil
}

// disperseBatchScratch is one worker's reusable state for the batched
// dispersal path: the score matrix backing and its header, the per-slot
// selectors, and the assembly buffers. Nothing here is allocated per batch
// once warm. excls holds one reusable exclusion bitset per slot
// (disperseTargetInto fills and returns them).
type disperseBatchScratch struct {
	slots    []disperseSlot
	excls    [disperseBatchClients]*bitset.Set
	scores   []float64     // batch×chunk (and 1×|D̃ᵢ|) score backing
	mat      tensor.Matrix // scoreMat's header over scores
	users    []int         // active user ids for one scoring call
	rows     []int         // active slot index per score-matrix row
	one      [1]int        // the user of a one-user re-scoring block
	sels     []metrics.LogitTopKSelector
	top      []int
	eligible []int // one client's ascending eligible set (random arms only)
}

func newDisperseBatchScratch() *disperseBatchScratch {
	return &disperseBatchScratch{
		slots: make([]disperseSlot, disperseBatchClients),
		sels:  make([]metrics.LogitTopKSelector, disperseBatchClients),
	}
}

// scoreMat returns a rows×cols score matrix over the scratch backing,
// growing it as needed. The header is the scratch's own, so the matrix is
// valid until the next call.
func (sc *disperseBatchScratch) scoreMat(rows, cols int) *tensor.Matrix {
	if need := rows * cols; cap(sc.scores) < need {
		sc.scores = make([]float64, need)
	}
	sc.mat = tensor.Matrix{Rows: rows, Cols: cols, Data: sc.scores[:rows*cols]}
	return &sc.mat
}

// disperseBatch builds D̃ᵢ for one worker's batch of clients (Eq. 9), with
// the scoring passes batched across the whole group:
//
//  1. eligibility is the target's upload bitset: every arm that selects
//     takes |eligible| from its popcount, and only the random arms turn it
//     into a list — one word walk per client into the worker's scratch;
//  2. the confidence half walks the round's shared ranking per client; a
//     random half draws from the client's own stream, conf before hard;
//  3. the hard half scores the batch against the item universe in
//     disperseScoreChunk-wide multi-user logit GEMM calls, streaming each
//     chunk's eligible logits into per-client bounded-heap logit-domain
//     selectors via windowed word walks over the upload bitsets — no
//     per-item membership probes, no full score vectors, and sigmoids only
//     for candidates that reach a heap;
//  4. each client's chosen items are re-scored as a one-user logit block,
//     σ applied per item — by the block contract, exactly ScoreItems.
//
// Each slot's preds is left ready for the wire.
func (sv *Server) disperseBatch(slots []disperseSlot, plan *dispersalPlan, sc *disperseBatchScratch) {
	mbs := sv.scorer
	nConf, nHard, confRandom, hardRandom := disperseArms(sv.cfg)
	draws := disperseNeedsStreams(sv.cfg)

	// Phase 1: eligibility, the confidence half and a random hard half, per
	// client. The pure-confidence path gets by on the bitset alone.
	for si := range slots {
		s := &slots[si]
		s.items = s.items[:0]
		s.preds = nil
		s.skip = false
		excl := s.tgt.excl
		if draws || nHard > 0 {
			s.eligCount = sv.numItems
			if excl != nil {
				s.eligCount -= excl.Count()
			}
			if s.eligCount == 0 {
				s.skip = true
				continue
			}
		}
		if draws {
			if sc.eligible == nil {
				sc.eligible = make([]int, 0, sv.numItems)
			}
			sc.eligible = candset.AppendComplement(sc.eligible[:0], excl, sv.numItems)
		}
		if nConf > 0 {
			if confRandom {
				s.items = drawItems(s.items, s.ds, sc.eligible, nConf, 2)
			} else {
				s.items = confWalkItems(s.items, plan.confRank, func(v int) bool {
					return excl != nil && excl.Contains(v)
				}, nConf)
			}
		}
		if nHard > 0 && hardRandom {
			s.items = drawItems(s.items, s.ds, sc.eligible, nHard, 3)
		}
	}

	// Phase 2: the deterministic hard half.
	if nHard > 0 && !hardRandom {
		// Batched top-K: score the whole batch chunk-by-chunk over the item
		// universe in logit domain; per client, a windowed word walk over the
		// upload bitset's complement pushes exactly the eligible
		// (item, logit) pairs into that client's logit-domain selector, in
		// ascending item order, reading four bytes of bitset per 64
		// memberships. Pushing item ids in ascending order gives the
		// (score desc, item asc) selection order, and the selector resolves
		// σ-collapsed ties as a probability-domain selection would, so the
		// logit domain only changes the sigmoid count — paid per heap
		// insertion instead of per eligible item.
		active := sc.users[:0]
		rows := sc.rows[:0]
		for si := range slots {
			s := &slots[si]
			if s.skip {
				continue
			}
			kSel := nHard + len(s.items)
			if kSel > s.eligCount {
				kSel = s.eligCount
			}
			sc.sels[len(rows)].Reset(kSel)
			active = append(active, s.tgt.id)
			rows = append(rows, si)
		}
		sc.users, sc.rows = active, rows
		if len(rows) > 0 {
			for lo := 0; lo < sv.numItems; lo += disperseScoreChunk {
				hi := lo + disperseScoreChunk
				if hi > sv.numItems {
					hi = sv.numItems
				}
				m := sc.scoreMat(len(rows), hi-lo)
				mbs.ScoreUsersBlockLogitsInto(m, active, sv.ident[lo:hi])
				for row, si := range rows {
					pushEligibleWindow(&sc.sels[row], slots[si].tgt.excl, m.Row(row), lo, hi)
				}
			}
			for row, si := range rows {
				s := &slots[si]
				sc.top = sc.sels[row].Into(sc.top)
				s.items, _ = pickItems(s.items, sc.top, nHard)
			}
		}
	}

	// Phase 3: re-score each client's chosen items as a one-user block. The
	// block contract makes σ of the row bitwise ScoreItems(id, items).
	for si := range slots {
		s := &slots[si]
		if s.skip {
			continue
		}
		sc.one[0] = s.tgt.id
		m := sc.scoreMat(1, len(s.items))
		mbs.ScoreUsersBlockLogitsInto(m, sc.one[:], s.items)
		s.preds = make([]comm.Prediction, len(s.items))
		for j, v := range s.items {
			s.preds[j] = comm.Prediction{User: s.tgt.id, Item: v, Score: nn.Sigmoid(m.Data[j])}
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
	sc := newDisperseBatchScratch()
	for b := 0; b < len(ids); b += disperseBatchClients {
		slots := sc.slots[:min(disperseBatchClients, len(ids)-b)]
		for i := range slots {
			slots[i].tgt, sc.excls[i] = sv.disperseTargetInto(ids[b+i], uploads[b+i], sc.excls[i])
			slots[i].ds = stream(ids[b+i])
		}
		sv.disperseBatch(slots, plan, sc)
		for i := range slots {
			emit(b+i, slots[i].preds)
		}
	}
}
