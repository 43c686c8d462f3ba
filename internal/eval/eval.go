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
// Candidates are the complement of the sorted train list, walked per score
// window: Split.Train[u] is ascending and stays in memory, so nothing per
// (user, item) is stored. Every held-out item is a candidate, as a Split's
// two sides are disjoint. Scorers that implement models.MultiBlockScorer rank
// through rankCounter, in the logit domain, evalUsersBatch users at a time:
// each user's held-out items are scored as a one-user block, each item window
// in one block for the batch's users still counting, and only logits inside a
// held-out item's metrics.LogitBand pay for a sigmoid. Any other scorer (a
// models.ScorerFunc: per-client adapters, the parameter-transmission
// baselines) is scored per user through ScoreItems over the complement list
// rebuilt into worker scratch, and counted over those probabilities. That one
// type test is the only engine choice; both paths are bitwise-identical to
// the naive score-everything-then-sort evaluation (metrics.TopK), so Results
// never depend on the path taken. A NaN score never beats, and a held-out
// item whose own score is NaN is never a hit.
//
// The package consumes the models scoring interface family directly
// (models.Scorer, its MultiBlockScorer refinement, models.Warmer for lazily
// built shared state); the type test happens once per Rank call, not per user.
package eval

import (
	"slices"

	"ptffedrec/internal/candset"
	"ptffedrec/internal/data"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/par"
)

// evalUsersBatch is how many users the batched engine counts together: each
// window is one kernel call over the batch's users still counting, which
// packs each item strip once for all of them, so a wide batch keeps that
// call's rows many once most users have left (at 16, about 4.8 a window, a
// quarter of the scored rows being tile padding). Purely a scheduling knob —
// the batch grouping never changes results. A var so tests can shrink it.
var evalUsersBatch = 128

// evalScoreChunk is the item-window width of the batched engine: a batch's
// logits materialise active-users×chunk at a time, and a user whose held-out
// items are all decided leaves before the next window, so a narrower window
// stops scoring sooner at a higher per-call cost. The pair comes from a sweep
// of batch ∈ {16, 64, 128, 256} × window ∈ {128, 256, 512} (2 cores): on the
// rank-heavy workload it read 0.259 core-s a round, against 0.345 at 16 × 512,
// 0.272 at 64 × 256 and 0.264 at 128 × 512; only batch 256 read lower, 1–4 %
// here and in BenchmarkEvaluatorRank, inside the spread, for twice the
// scratch. A var so tests can shrink it to force multi-window counts.
var evalScoreChunk = 256

// Result holds user-averaged ranking metrics.
type Result struct {
	Recall, NDCG float64
	Users        int
}

// Evaluator is the evaluation engines' round-persistent state for one split:
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
// per-user path: the candidate list and the hits' ranks. Only the score
// vector ScoreItems returns is allocated per user.
type scratch struct {
	cand  []int
	ranks []int
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
	par.ForChunks(len(e.users), chunk, workers, func(lo, hi int) {
		if batched {
			e.rankBatched(multi, lo, hi, k, recalls, ndcgs)
			return
		}
		sc := &scratch{cand: make([]int, 0, e.sp.NumItems)}
		for i := lo; i < hi; i++ {
			recalls[i], ndcgs[i] = e.evalUser(s, sc, i, k)
		}
	})
	var agg metrics.RankEval
	for i := range e.users {
		agg.AddUser(recalls[i], ndcgs[i])
	}
	r, n := agg.Mean()
	return Result{Recall: r, NDCG: n, Users: agg.Users}
}

// evalUser scores one user's candidates through ScoreItems, counts the
// candidates that beat each held-out item, and returns their Recall@k and
// NDCG@k.
func (e *Evaluator) evalUser(s models.Scorer, sc *scratch, i, k int) (recall, ndcg float64) {
	u := e.users[i]
	sc.cand = candset.AppendComplementSorted(sc.cand[:0], e.sp.NumItems, e.sp.Train[u])
	probs := s.ScoreItems(u, sc.cand)
	sc.ranks = sc.ranks[:0]
	for _, t := range e.sp.Test[u] {
		pos, _ := slices.BinarySearch(sc.cand, t)
		pt, count := probs[pos], 0
		for c := 0; c < len(probs) && count < k; c++ {
			if metrics.Beats(probs[c], c, pt, pos) {
				count++
			}
		}
		if count < k && pt == pt {
			sc.ranks = append(sc.ranks, count)
		}
	}
	return hitMetrics(sc.ranks, len(e.sp.Test[u]), min(k, len(sc.cand)))
}

// hitMetrics sorts the hits' ranks and hands them to metrics.HitMetrics; k
// is the cutoff clamped to the candidate count.
func hitMetrics(ranks []int, relevant, k int) (recall, ndcg float64) {
	slices.Sort(ranks)
	return metrics.HitMetrics(ranks, relevant, k)
}

// RankingWorkers evaluates the scorer on a split at cutoff k with the given
// worker count (<= 0 means GOMAXPROCS): a throwaway Evaluator ranked once.
// For each user with held-out items, every non-train item is scored. Nothing
// outside tests and the root facade calls the one-shot form; per-round
// callers hold one.
func RankingWorkers(s models.Scorer, sp *data.Split, k, workers int) Result {
	return NewEvaluator(sp).Rank(s, k, workers)
}
