// Package eval computes the paper's ranking metrics (§IV-B): Recall@20 and
// NDCG@20 over every item the user has not interacted with in training, with
// the held-out 20% as relevance targets.
//
// The metrics need only where each held-out item t ranks among the
// candidates, never the ranked list itself: t's 0-based position in
// metrics.TopK's order over the candidates' probabilities is the number of
// candidates c that beat it (metrics.Beats: a higher probability, or an equal
// one and c < t), and t is a hit iff that count is below min(k, candidates).
// metrics.HitMetrics turns the hits' positions into Recall and NDCG bitwise
// RecallAtK's and NDCGAtK's over that list. So the evaluator counts: a
// held-out item stops counting once k candidates beat it, and a user stops
// being scored once all of theirs have.
//
// Evaluation is embarrassingly parallel across users, and once per-round
// traffic is kilobytes it dominates server-side wall-clock, so Rank fans
// the user loop out over a worker pool. Per-user metric values are written to
// index-addressed slots and reduced sequentially in user order, so the result
// is bitwise-identical for every worker count.
//
// Candidates are the complement of the train list, masked per score window:
// Split.Train[u] stays in memory, so nothing per (user, item) is stored. Every
// held-out item is a candidate, as a Split's two sides are disjoint. There is
// one engine, rankCounter, and one scoring contract, models.MultiBlockScorer:
// users are counted in the logit domain, evalUsersBatch at a time — each
// user's held-out items are scored as a one-user block, each item window in
// one block for the batch's users still counting — and only logits inside a
// held-out item's metrics.LogitBand pay for a sigmoid.
//
// Each Rank call scans the catalogue in one order. For a scorer that
// implements models.LogitBounder, whose logits are bounded by b_u·b_v, it is
// descending item bound, ties by id, and at each window start a user retires
// once b_u times the window's first bound is below the band of every held-out
// item still counting: no remaining item can beat one, so they finish as hits
// at the counts they hold. Any other scorer is scanned in id order with +Inf
// bounds, which retire nobody early. A beat count does not depend on the scan
// order, so the engine is bitwise-identical to the naive
// score-everything-then-sort evaluation (metrics.TopK over σ of every
// candidate's logit) either way. A NaN score never beats, and a held-out item
// whose own score is NaN is never a hit. A scorer that lazily builds shared
// state implements models.Warmer, which Rank calls before ordering and
// fanning out.
package eval

import (
	"slices"

	"ptffedrec/internal/data"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/par"
)

// K is the paper's ranking cutoff: every reported Recall and NDCG is @K.
const K = 20

// evalUsersBatch is how many users the batched engine counts together: each
// window is one kernel call over the batch's users still counting, which
// packs each item strip once for all of them, so a wide batch keeps that
// call's rows many once most users have left (at 16, about 4.8 a window, a
// quarter of the scored rows being tile padding). Purely a scheduling knob —
// the batch grouping never changes results. A var so tests can shrink it.
var evalUsersBatch = 128

// evalScoreChunk is the item-window width of the batched engine: a batch's
// logits materialise active-users×chunk at a time, and a user whose held-out
// items are all decided, or who retires on the bound, leaves before the next
// window, so a narrower window stops scoring sooner at a higher per-call
// cost. The pair comes from a sweep of batch ∈ {16, 64, 128, 256} × window ∈
// {128, 256, 512} (2 cores), taken in id order on the rank-heavy workload
// (0.259 core-s a round, against 0.345 at 16 × 512 and 0.272 at 64 × 256) and
// again in bound order, in BenchmarkEvaluatorRank and on a LightGCN trained
// as rank-heavy trains it: batches of 128 and 256 at windows of 256 and 512
// read within their run-to-run spread (2.4–3.6 ms for BenchmarkEvaluatorRank),
// and the smaller batch needs half the scratch. A var so tests can shrink it
// to force multi-window counts.
var evalScoreChunk = 256

// Result holds user-averaged ranking metrics.
type Result struct {
	Recall, NDCG float64
	Users        int
}

// Evaluator is the evaluation engines' round-persistent state for one split:
// the evaluated-user list and the identity item list, and nothing per user —
// each user's candidates are the complement of Split.Train[u], masked while
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

// Rank evaluates the scorer at cutoff k over every user's non-train items with
// the given worker count (<= 0 means GOMAXPROCS). Metrics are
// bitwise-identical for every worker count: per-user values depend only on
// the scorer, and the reduction runs sequentially in user order. It warms a
// Warmer at every worker count, since the item bounds read the warm state,
// and builds the call's scan order, which its workers share read-only.
func (e *Evaluator) Rank(s models.MultiBlockScorer, k, workers int) Result {
	if len(e.users) == 0 {
		return Result{}
	}
	workers = par.Workers(workers)
	if w, ok := s.(models.Warmer); ok {
		w.WarmScoring()
	}
	ord := e.newScanOrder(s)
	recalls := make([]float64, len(e.users))
	ndcgs := make([]float64, len(e.users))
	// Chunk users so each worker reuses one rank counter across its whole
	// share instead of allocating per user (or per batch).
	chunk := (len(e.users) + workers - 1) / workers
	par.ForChunks(len(e.users), chunk, workers, func(lo, hi int) {
		e.rankBatched(s, &ord, lo, hi, k, recalls, ndcgs)
	})
	var agg metrics.RankEval
	for i := range e.users {
		agg.AddUser(recalls[i], ndcgs[i])
	}
	r, n := agg.Mean()
	return Result{Recall: r, NDCG: n, Users: agg.Users}
}

// hitMetrics sorts the hits' ranks and hands them to metrics.HitMetrics; k
// is the cutoff clamped to the candidate count.
func hitMetrics(ranks []int, relevant, k int) (recall, ndcg float64) {
	slices.Sort(ranks)
	return metrics.HitMetrics(ranks, relevant, k)
}
