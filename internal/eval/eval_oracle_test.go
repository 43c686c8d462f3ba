package eval

import (
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
)

// oracleEval is the batched evaluation body the rank-counting engine
// replaced, kept as its reference and benchmark baseline: per batch,
// BlockTopK selects every user's top k over their train list's complement,
// and each ranked list meets a relevance map in RecallAtK and NDCGAtK. Its
// scratch is reused across batches, so a warm batch allocates nothing.
type oracleEval struct {
	e        *Evaluator
	k        int
	topk     *BlockTopK
	excl     [][]int
	ranked   []int
	relevant map[int]bool
}

func newOracleEval(e *Evaluator, k int) *oracleEval {
	return &oracleEval{
		e:        e,
		k:        k,
		topk:     NewBlockTopK(e.ident, evalUsersBatch, evalScoreChunk, k),
		excl:     make([][]int, 0, evalUsersBatch),
		ranked:   make([]int, 0, k),
		relevant: make(map[int]bool, 16),
	}
}

// batch ranks users [b, be) of e.users into the slots of the same index.
func (o *oracleEval) batch(s models.MultiBlockScorer, b, be int, recalls, ndcgs []float64) {
	users := o.e.users[b:be]
	o.excl = o.excl[:0]
	for _, u := range users {
		o.excl = append(o.excl, o.e.sp.Train[u])
	}
	o.topk.Select(s, users, o.excl)
	for i, u := range users {
		o.ranked = o.topk.Into(i, o.ranked)
		clear(o.relevant)
		for _, v := range o.e.sp.Test[u] {
			o.relevant[v] = true
		}
		recalls[b+i] = metrics.RecallAtK(o.ranked, o.relevant, o.k)
		ndcgs[b+i] = metrics.NDCGAtK(o.ranked, o.relevant, o.k)
	}
}

// oracleRank is Rank through oracleEval on one worker.
func oracleRank(e *Evaluator, s models.MultiBlockScorer, k int) Result {
	o := newOracleEval(e, k)
	recalls := make([]float64, len(e.users))
	ndcgs := make([]float64, len(e.users))
	for b := 0; b < len(e.users); b += evalUsersBatch {
		o.batch(s, b, min(b+evalUsersBatch, len(e.users)), recalls, ndcgs)
	}
	var agg metrics.RankEval
	for i := range e.users {
		agg.AddUser(recalls[i], ndcgs[i])
	}
	r, n := agg.Mean()
	return Result{Recall: r, NDCG: n, Users: agg.Users}
}
