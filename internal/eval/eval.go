// Package eval computes the paper's ranking metrics (§IV-B): Recall@20 and
// NDCG@20 over every item the user has not interacted with in training, with
// the held-out 20% as relevance targets.
//
// Evaluation is embarrassingly parallel across users, and once per-round
// traffic is kilobytes it dominates server-side wall-clock, so Ranking fans
// the user loop out over a worker pool. Per-user metric values are written to
// index-addressed slots and reduced sequentially in user order, so the result
// is bitwise-identical for every worker count.
//
// Candidates are the complement of the sorted train list, walked per score
// window: Split.Train[u] is ascending and stays in memory, so nothing per
// (user, item) is stored and Split.InTrain is never probed. Scorers that
// implement models.MultiBlockScorer rank through BlockTopK, the batched
// logit-domain top-K engine that Eq. 9's dispersal hard half (internal/fed)
// selects through too: evalUsersBatch users per gather-GEMM over each item
// window, the runs between each user's consecutive train items streamed into
// metrics.LogitTopKSelector, so no NumItems-length score vector exists and the
// sigmoid is paid only for candidates that reach a heap. Any other scorer (a
// models.ScorerFunc: per-client adapters, the parameter-transmission
// baselines) is ranked per user through ScoreItems and metrics.TopKInto over
// the complement list rebuilt into worker scratch. That one type test is the
// only engine choice; both paths are bitwise-identical to the naive
// score-everything-then-sort evaluation (metrics.TopK), so Results never
// depend on the path taken.
//
// The package consumes the models scoring interface family directly
// (models.Scorer, its MultiBlockScorer refinement, models.Warmer for lazily
// built shared state); the type test happens once per Rank call, not per user.
package eval

import (
	"ptffedrec/internal/candset"
	"ptffedrec/internal/data"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/par"
)

// evalUsersBatch is how many users the batched engine scores per kernel call:
// the multi-user GEMM loads each item-embedding row once per batch instead of
// once per user, and its interleaved accumulators hide FP-add latency. Purely
// a scheduling knob — the batch grouping never changes results. A var so
// tests can shrink it to force multi-batch runs on small user sets.
var evalUsersBatch = 16

// evalScoreChunk is the item-window width of the batched engine: a user
// batch's logits materialise batch×chunk at a time, streaming each window's
// candidate logits into the per-user selectors, so no full score vector ever
// exists. A var so tests can shrink it to force multi-window selections on
// small catalogues.
var evalScoreChunk = 1024

// Result holds user-averaged ranking metrics.
type Result struct {
	Recall, NDCG float64
	Users        int
}

// Evaluator is the selection engine's round-persistent state for one split:
// the evaluated-user list and the identity item list, and nothing per user —
// each user's candidates are the complement of Split.Train[u], walked while
// the scores stream past. It is scorer- and cutoff-agnostic and read-only
// after construction, so one Evaluator can serve concurrent Rank calls (the
// federated trainer holds one across rounds and shares it between the server
// and client evaluations).
type Evaluator struct {
	sp *data.Split

	users []int // users with held-out items, ascending
	ident []int // identity item list 0..NumItems-1 for the batched windows
}

// NewEvaluator lists the split's evaluated users: one pass over Split.Test.
func NewEvaluator(sp *data.Split) *Evaluator {
	e := &Evaluator{sp: sp, ident: make([]int, sp.NumItems)}
	for u := 0; u < sp.NumUsers; u++ {
		if len(sp.Test[u]) > 0 {
			e.users = append(e.users, u)
		}
	}
	for v := range e.ident {
		e.ident[v] = v
	}
	return e
}

// LazyEvaluator returns *ep, building the split's Evaluator into it on first
// use — the one lazy-init used by every trainer that holds one across rounds,
// which saves the evaluated-user scan and the identity list per evaluation.
func LazyEvaluator(ep **Evaluator, sp *data.Split) *Evaluator {
	if *ep == nil {
		*ep = NewEvaluator(sp)
	}
	return *ep
}

// Users returns how many users the evaluator covers.
func (e *Evaluator) Users() int { return len(e.users) }

// CacheBytes reports what the evaluator retains between Rank calls — the user
// and identity lists; there is no per-user state. Kept for the frozen
// bench/traced.go, which reads it as eval.cache_mb.
func (e *Evaluator) CacheBytes() int64 { return 8 * int64(cap(e.users)+cap(e.ident)) }

// scratch is one worker's reusable state for its whole share of users on the
// per-user path: the candidate list, the selection output, the ranked
// item list and the relevance set. Only the score vector ScoreItems returns
// is allocated per user.
type scratch struct {
	cand     []int
	top      []int
	ranked   []int
	relevant map[int]bool
}

// batchScratch is one worker's reusable state for the batched engine: the
// BlockTopK, the batch's train lists as its exclusion lists, the ranked item
// list and the relevance set. Nothing here is allocated per batch.
type batchScratch struct {
	topk     *BlockTopK
	excl     [][]int
	ranked   []int
	relevant map[int]bool
}

func (e *Evaluator) newBatchScratch(k int) *batchScratch {
	return &batchScratch{
		topk:     NewBlockTopK(e.ident, evalUsersBatch, evalScoreChunk, k),
		excl:     make([][]int, 0, evalUsersBatch),
		ranked:   make([]int, 0, k),
		relevant: make(map[int]bool, 16),
	}
}

// Rank evaluates the scorer at cutoff k over every user's non-train items with
// the given worker count (<= 0 means GOMAXPROCS). Metrics are
// bitwise-identical for every worker count and for both scoring paths:
// per-user values depend only on the scorer, and the reduction runs
// sequentially in user order.
func (e *Evaluator) Rank(s models.Scorer, k, workers int) Result {
	if len(e.users) == 0 {
		return Result{}
	}
	workers = par.Workers(workers)
	// The one engine choice: a scorer with the multi-user logit contract ranks
	// through the batched engine; anything else — per-client adapters, the
	// parameter-transmission baselines — through the per-user ScoreItems loop.
	multi, batched := s.(models.MultiBlockScorer)
	if workers > 1 {
		if w, ok := s.(models.Warmer); ok {
			w.WarmScoring()
		}
	}
	recalls := make([]float64, len(e.users))
	ndcgs := make([]float64, len(e.users))
	// Chunk users so each worker reuses one scratch across its whole share
	// instead of allocating per user (or per batch).
	chunk := (len(e.users) + workers - 1) / workers
	if batched {
		par.ForChunks(len(e.users), chunk, workers, func(lo, hi int) {
			sc := e.newBatchScratch(k)
			for b := lo; b < hi; b += evalUsersBatch {
				be := b + evalUsersBatch
				if be > hi {
					be = hi
				}
				e.evalUserBatch(multi, sc, b, be, k, recalls, ndcgs)
			}
		})
	} else {
		par.ForChunks(len(e.users), chunk, workers, func(lo, hi int) {
			sc := &scratch{
				cand:     make([]int, 0, e.sp.NumItems),
				ranked:   make([]int, 0, k),
				relevant: make(map[int]bool, 16),
			}
			for i := lo; i < hi; i++ {
				recalls[i], ndcgs[i] = e.evalUser(s, sc, i, k)
			}
		})
	}
	var agg metrics.RankEval
	for i := range e.users {
		agg.AddUser(recalls[i], ndcgs[i])
	}
	r, n := agg.Mean()
	return Result{Recall: r, NDCG: n, Users: agg.Users}
}

// evalUser ranks one user through ScoreItems and a partial selection over the
// materialised score vector, and returns their Recall@k and NDCG@k.
func (e *Evaluator) evalUser(s models.Scorer, sc *scratch, i, k int) (recall, ndcg float64) {
	u := e.users[i]
	sc.cand = candset.AppendComplementSorted(sc.cand[:0], e.sp.NumItems, e.sp.Train[u])
	sc.top = metrics.TopKInto(sc.top, s.ScoreItems(u, sc.cand), k)
	ranked := sc.ranked[:0]
	for _, idx := range sc.top {
		ranked = append(ranked, sc.cand[idx])
	}
	sc.ranked = ranked
	return e.userMetrics(ranked, sc.relevant, u, k)
}

// evalUserBatch ranks users [b, be) of e.users through the batched engine:
// each user's exclusion list is their train list — strictly ascending and in
// range, as InTrain's binary search relies on too — so the BlockTopK's
// winners are the user's ranked items, bitwise the per-user path's (see
// BlockTopK).
func (e *Evaluator) evalUserBatch(mbs models.MultiBlockScorer, sc *batchScratch, b, be, k int, recalls, ndcgs []float64) {
	users := e.users[b:be]
	sc.excl = sc.excl[:0]
	for _, u := range users {
		sc.excl = append(sc.excl, e.sp.Train[u])
	}
	sc.topk.Select(mbs, users, sc.excl)
	for i, u := range users {
		sc.ranked = sc.topk.Into(i, sc.ranked)
		recalls[b+i], ndcgs[b+i] = e.userMetrics(sc.ranked, sc.relevant, u, k)
	}
}

// userMetrics computes one user's Recall@k and NDCG@k from their ranked item
// list, rebuilding the relevance set in the worker's scratch map.
func (e *Evaluator) userMetrics(ranked []int, relevant map[int]bool, u, k int) (recall, ndcg float64) {
	clear(relevant)
	for _, v := range e.sp.Test[u] {
		relevant[v] = true
	}
	return metrics.RecallAtK(ranked, relevant, k), metrics.NDCGAtK(ranked, relevant, k)
}

// Ranking evaluates the scorer on a split at cutoff k with GOMAXPROCS
// workers. For each user with held-out items, every non-train item is scored;
// train positives are excluded from the candidate list.
func Ranking(s models.Scorer, sp *data.Split, k int) Result {
	return RankingWorkers(s, sp, k, 0)
}

// RankingWorkers is Ranking with an explicit worker count (<= 0 means
// GOMAXPROCS): a throwaway Evaluator ranked once. Nothing outside tests and
// the root facade calls the one-shot form; per-round callers hold one.
func RankingWorkers(s models.Scorer, sp *data.Split, k, workers int) Result {
	return NewEvaluator(sp).Rank(s, k, workers)
}
