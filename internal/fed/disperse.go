package fed

// This file is the round-scoped dispersal engine: the shared eligibility
// cache that serves each client's eligible item set, the D̃ᵢ assembly
// helpers, and the multi-user batched path, which groups one worker's clients
// into score batches and drives the hard-half top-K and the final re-scoring
// through multi-user GEMM kernels (models.MultiBlockScorer).
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
	"sync"

	"ptffedrec/internal/bitset"
	"ptffedrec/internal/candset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/metrics"
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

// eligCache is the dispersal engine's shared eligibility cache: int32-packed
// ascending eligible lists — the complement of each user's stored-upload
// exclusion bitset — served while the user's upload generation (the server's
// absorb counter) is unchanged and rebuilt with a word walk (64 memberships
// per load, no per-item probes) on a miss. Same-user stale rebuilds reuse the
// entry's backing array, so steady-state rounds allocate nothing here.
//
// The cache is a bounded LRU: at most budget entries are resident, so
// dispersal memory stops scaling with users × items — a huge-user run holds
// budget × numItems × 4 B no matter how many clients cycle through. An
// eviction costs its victim nothing but the word-walk rebuild on their next
// dispersal, and any budget ≥ 1 is correct.
//
// Concurrency: dispersal workers share the cache, and the recency list and
// eviction state are global, so every access runs under one mutex (the
// rebuild too — it is a word walk over a few KB, far cheaper than a second
// lock round-trip per miss would be worth). The returned slices are safe to
// read outside the lock: a hit or same-client rebuild is only reachable from
// the one worker that owns that client this round, and an eviction leaves
// the victim's backing array untouched — the replacement entry always gets a
// fresh list, so a slice another worker still holds this round is never
// overwritten.
type eligCache struct {
	mu     sync.Mutex
	budget int
	byUser map[int]int32 // user id -> slot index
	slots  []eligSlot    // grows up to budget, then recycles via LRU
	head   int32         // most recently used slot, -1 when empty
	tail   int32         // least recently used slot, -1 when empty
}

// eligSlot is one cache entry, threaded on an intrusive recency list.
type eligSlot struct {
	user int
	gen  uint64
	list []int32
	prev int32
	next int32
}

// defaultEligCacheBudget bounds the dispersal eligibility cache: at most
// this many per-client eligible lists stay resident, recycled LRU, so
// dispersal memory is budget × NumItems × 4 B instead of growing with every
// client ever dispersed to. A miss rebuilds via the word walk — any budget ≥ 1
// is correct, smaller budgets just rebuild more. 4096 is large enough that
// every profile up to large-50k's working set of concurrently dispersed
// clients hits, small enough that a million-user run is bounded at tens of MB
// of lists.
const defaultEligCacheBudget = 4096

func newEligCache(budget int) *eligCache {
	return &eligCache{
		budget: budget,
		byUser: make(map[int]int32),
		head:   -1,
		tail:   -1,
	}
}

// eligible returns the target's current eligible set. The returned slice
// aliases the cache; callers must not retain it across the user's next
// absorbed upload (nor across the round — an evicted-then-readmitted user
// gets a fresh backing array, but a same-user generation bump reuses the old
// one). The target's exclusion bitset is only read during the call, so
// callers may reuse its backing for the next target.
func (e *eligCache) eligible(tgt disperseTarget, numItems int) []int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if si, ok := e.byUser[tgt.id]; ok {
		s := &e.slots[si]
		if s.gen != tgt.gen {
			// Stale: the user uploaded since this list was built, so any
			// alias from before that upload is already dead by contract and
			// the backing array is free to reuse.
			s.list = e.buildList(s.list[:0], tgt.excl, numItems)
			s.gen = tgt.gen
		}
		e.moveToFront(si)
		return s.list
	}
	var si int32
	if len(e.slots) < e.budget {
		si = int32(len(e.slots))
		e.slots = append(e.slots, eligSlot{})
	} else {
		si = e.tail
		victim := &e.slots[si]
		delete(e.byUser, victim.user)
		e.unlink(si)
		// The victim's list may still be read by another worker this round;
		// drop it so the new entry builds into fresh backing instead.
		victim.list = nil
	}
	s := &e.slots[si]
	s.user, s.gen = tgt.id, tgt.gen
	s.list = e.buildList(s.list[:0], tgt.excl, numItems)
	e.byUser[tgt.id] = si
	e.pushFront(si)
	return s.list
}

// buildList writes the eligible set into dst: the full item range for a user
// with no stored upload, the bitset-complement word walk otherwise.
func (e *eligCache) buildList(dst []int32, excl *bitset.Set, numItems int) []int32 {
	if excl == nil {
		return candset.AppendRange(dst, numItems)
	}
	return candset.AppendComplement(dst, excl, numItems)
}

// unlink removes slot si from the recency list.
func (e *eligCache) unlink(si int32) {
	s := &e.slots[si]
	if s.prev >= 0 {
		e.slots[s.prev].next = s.next
	} else {
		e.head = s.next
	}
	if s.next >= 0 {
		e.slots[s.next].prev = s.prev
	} else {
		e.tail = s.prev
	}
}

// pushFront makes slot si the most recently used.
func (e *eligCache) pushFront(si int32) {
	s := &e.slots[si]
	s.prev, s.next = -1, e.head
	if e.head >= 0 {
		e.slots[e.head].prev = si
	}
	e.head = si
	if e.tail < 0 {
		e.tail = si
	}
}

// moveToFront refreshes slot si's recency.
func (e *eligCache) moveToFront(si int32) {
	if e.head == si {
		return
	}
	e.unlink(si)
	e.pushFront(si)
}

// entries returns how many lists are resident (tests).
func (e *eligCache) entries() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.byUser)
}

// eligSlotOverheadBytes is one slot's bookkeeping: the eligSlot struct (user
// + gen + slice header + two int32 links, padded) plus the map entry.
const eligSlotOverheadBytes = 48 + 32

// memoryBytes reports the cache's resident footprint.
func (e *eligCache) memoryBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := int64(len(e.slots)) * eligSlotOverheadBytes
	for i := range e.slots {
		b += int64(cap(e.slots[i].list)) * 4
	}
	return b
}

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

// pushEligibleWindow streams one chunk's eligible logits into a selector:
// every item in [lo, hi) outside the exclusion bitset is pushed with its raw
// logit from scoresRow (indexed relative to lo), in ascending item order —
// exactly the push order metrics.LogitTopKSelector's tie-safe contract
// requires. The walk runs over the bitset's complement words — 64 memberships
// per load, the same machinery as candset.AppendComplement windowed to the
// chunk — so eligibility costs bitset words, not a materialised list.
func pushEligibleWindow(sel *metrics.LogitTopKSelector, excluded *bitset.Set, scoresRow []float64, lo, hi int) {
	if excluded == nil {
		for v := lo; v < hi; v++ {
			sel.Push(v, scoresRow[v-lo])
		}
		return
	}
	words := excluded.Words()
	for base := lo &^ 63; base < hi; base += 64 {
		w := ^words[base>>6]
		if base < lo {
			w &^= (1 << uint(lo-base)) - 1
		}
		for w != 0 {
			v := base + bits.TrailingZeros64(w)
			if v >= hi {
				break
			}
			sel.Push(v, scoresRow[v-lo])
			w &= w - 1
		}
	}
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
	elig      []int32 // cache-served eligible set (random arms only)
	eligCount int     // |eligible| = numItems − |exclusion set|
	items     []int   // chosen D̃ᵢ items, conf half then hard half
	preds     []comm.Prediction
	skip      bool // eligible set empty: D̃ᵢ is nil
}

// disperseBatchScratch is one worker's reusable state for the batched
// dispersal path: the chunk score matrix backing, the per-slot selectors,
// and the assembly buffers. Nothing here is allocated per batch once warm.
// excls holds one reusable exclusion bitset per slot (disperseTargetInto
// fills and returns them).
type disperseBatchScratch struct {
	slots     []disperseSlot
	excls     [disperseBatchClients]*bitset.Set
	scores    []float64 // batch×chunk (and batch×union) score backing
	users     []int     // active user ids for one scoring call
	rows      []int     // active slot index per score-matrix row
	sels      []metrics.LogitTopKSelector
	top       []int
	widened   []int // one client's eligible set widened for the random arms
	pairUsers []int // flattened (user, item) pairs for the final re-scoring
	pairItems []int
}

func newDisperseBatchScratch() *disperseBatchScratch {
	return &disperseBatchScratch{
		slots: make([]disperseSlot, disperseBatchClients),
		sels:  make([]metrics.LogitTopKSelector, disperseBatchClients),
	}
}

// scoreMat returns a rows×cols score matrix over the scratch backing,
// growing it as needed.
func (sc *disperseBatchScratch) scoreMat(rows, cols int) *tensor.Matrix {
	if need := rows * cols; cap(sc.scores) < need {
		sc.scores = make([]float64, need)
	}
	return tensor.FromSlice(rows, cols, sc.scores[:rows*cols])
}

// disperseBatch builds D̃ᵢ for one worker's batch of clients (Eq. 9), with
// the scoring passes batched across the whole group:
//
//  1. eligibility: the random arms fetch each client's materialised eligible
//     list from the shared eligibility cache; the deterministic arms need
//     only the eligible count (from the upload bitset) plus the bitset
//     itself, touching four bytes per excluded — not per eligible — item;
//  2. the confidence half walks the round's shared ranking per client (or
//     draws from the client's own stream in the random arms);
//  3. the hard half scores the batch against the item universe in
//     disperseScoreChunk-wide multi-user logit GEMM calls, streaming each
//     chunk's eligible logits into per-client bounded-heap logit-domain
//     selectors via windowed word walks over the upload bitsets — no
//     per-item membership probes, no full score vectors, and sigmoids only
//     for candidates that reach a heap;
//  4. the final re-scoring of every client's chosen items runs as one
//     ragged pair-batched multi-user pass.
//
// Each slot's preds is left ready for the wire.
func (sv *Server) disperseBatch(slots []disperseSlot, plan *dispersalPlan, sc *disperseBatchScratch) {
	mbs := sv.scorer
	nConf, nHard, confRandom, hardRandom := disperseArms(sv.cfg)

	// The random arms draw from a materialised eligible list; the
	// deterministic hard half streams eligibility from the bitset and needs
	// only the count; the pure-confidence path gets by on the bitset alone.
	needEligList := (nConf > 0 && confRandom) || (nHard > 0 && hardRandom)
	needEligCount := nHard > 0 && !hardRandom

	// Phase 1: eligibility + confidence half, per client.
	for si := range slots {
		s := &slots[si]
		s.items = s.items[:0]
		s.preds = nil
		s.skip = false
		if needEligList {
			s.elig = sv.elig.eligible(s.tgt, sv.numItems)
			s.eligCount = len(s.elig)
			if s.eligCount == 0 {
				s.skip = true
				continue
			}
		} else if needEligCount {
			s.eligCount = sv.numItems
			if s.tgt.excl != nil {
				s.eligCount -= s.tgt.excl.Count()
			}
			if s.eligCount == 0 {
				s.skip = true
				continue
			}
		}
		if nConf > 0 {
			if confRandom {
				sc.widened = candset.Widen(sc.widened, s.elig)
				k := nConf * 2
				if k > len(sc.widened) {
					k = len(sc.widened)
				}
				var unfilled int
				s.items, unfilled = pickItems(s.items, rng.SampleSlice(s.ds, sc.widened, k), nConf)
				s.items = fillItems(s.items, sc.widened, unfilled)
			} else {
				excl := s.tgt.excl
				s.items = confWalkItems(s.items, plan.confRank, func(v int) bool {
					return excl != nil && excl.Contains(v)
				}, nConf)
			}
		}
	}

	// Phase 2: hard half.
	if nHard > 0 && hardRandom {
		for si := range slots {
			s := &slots[si]
			if s.skip {
				continue
			}
			sc.widened = candset.Widen(sc.widened, s.elig)
			k := nHard * 3
			if k > len(sc.widened) {
				k = len(sc.widened)
			}
			var unfilled int
			s.items, unfilled = pickItems(s.items, rng.SampleSlice(s.ds, sc.widened, k), nHard)
			s.items = fillItems(s.items, sc.widened, unfilled)
		}
	} else if nHard > 0 {
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

	// Phase 3: final re-scoring of the chosen items as one ragged multi-user
	// pass — every client's (id, item) pairs concatenate into one pair list
	// scored by a single ScorePairsInto call, exactly Σ|D̃ᵢ| pair scores for
	// the batch. The pair kernels compute the same dot products / tower
	// forwards per-client re-scoring does, so values are identical.
	pairUsers := sc.pairUsers[:0]
	pairItems := sc.pairItems[:0]
	for si := range slots {
		s := &slots[si]
		if s.skip {
			continue
		}
		s.preds = make([]comm.Prediction, len(s.items))
		for _, v := range s.items {
			pairUsers = append(pairUsers, s.tgt.id)
			pairItems = append(pairItems, v)
		}
	}
	sc.pairUsers, sc.pairItems = pairUsers, pairItems
	if len(pairItems) == 0 {
		return
	}
	if cap(sc.scores) < len(pairItems) {
		sc.scores = make([]float64, len(pairItems))
	}
	scores := sc.scores[:len(pairItems)]
	mbs.ScorePairsInto(scores, pairUsers, pairItems)
	off := 0
	for si := range slots {
		s := &slots[si]
		if s.skip {
			continue
		}
		for j, v := range s.items {
			s.preds[j] = comm.Prediction{User: s.tgt.id, Item: v, Score: scores[off+j]}
		}
		off += len(s.items)
	}
}

// disperseUsers builds D̃ᵢ for every listed user on the calling goroutine,
// disperseBatchClients at a time, and hands each result to emit with the
// user's index in ids. Targets come from the upload store, so nothing here
// touches (or materialises) a client; stream returns user id's
// per-(round, client) stream, or nil for the arms that draw nothing.
// The call only reads server state — workers run it concurrently on disjoint
// id ranges once the model's scoring cache is warm.
func (sv *Server) disperseUsers(ids []int, plan *dispersalPlan, stream func(id int) *rng.Stream, emit func(i int, preds []comm.Prediction)) {
	sc := newDisperseBatchScratch()
	for b := 0; b < len(ids); b += disperseBatchClients {
		slots := sc.slots[:min(disperseBatchClients, len(ids)-b)]
		for i := range slots {
			slots[i].tgt, sc.excls[i] = sv.disperseTargetInto(ids[b+i], sc.excls[i])
			slots[i].ds = stream(ids[b+i])
		}
		sv.disperseBatch(slots, plan, sc)
		for i := range slots {
			emit(b+i, slots[i].preds)
		}
	}
}
