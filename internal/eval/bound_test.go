package eval

import (
	"math"
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// unbounded hides a scorer's LogitBounder, so the engine scans it in id order
// with +Inf bounds.
type unbounded struct{ models.MultiBlockScorer }

// boundedTable is a logitTable with the tightest bounds its logits allow:
// 1 for every user and, for item v, the largest |logit| any user has on it
// (NaN if one is NaN). equal gives every item the table's largest instead,
// so the scan order is the identity and no user may retire before the end.
type boundedTable struct {
	logitTable
	equal bool
}

func (l boundedTable) LogitBoundsInto(dst []float64, users, items []int) {
	var all float64
	for _, row := range l.logitTable {
		for _, x := range row {
			all = max(all, math.Abs(x))
		}
	}
	for i := range users {
		dst[i] = 1
	}
	for j, v := range items {
		var b float64
		for _, row := range l.logitTable {
			b = max(b, math.Abs(row[v]))
		}
		if l.equal {
			b = all
		}
		dst[len(users)+j] = b
	}
}

// countWindows ranks every evaluated user on one rank counter and returns the
// Result, reduced as Rank reduces it, and the user-windows it scored.
func countWindows(e *Evaluator, s models.MultiBlockScorer, k int) (Result, int) {
	ord := e.newScanOrder(s)
	rc := e.newRankCounter(s, &ord, k)
	recalls, ndcgs := make([]float64, e.Users()), make([]float64, e.Users())
	for lo := 0; lo < e.Users(); lo += evalUsersBatch {
		rc.rank(lo, min(lo+evalUsersBatch, e.Users()), recalls, ndcgs)
	}
	var agg metrics.RankEval
	for i := range recalls {
		agg.AddUser(recalls[i], ndcgs[i])
	}
	r, n := agg.Mean()
	return Result{Recall: r, NDCG: n, Users: agg.Users}, rc.windows
}

// trainedMF is a dense MF model trained for the given epochs over the split's
// interactions, four sampled negatives a positive, until held-out items rank
// well above chance.
func trainedMF(tb testing.TB, sp *data.Split, dim, epochs int) models.Recommender {
	tb.Helper()
	m, err := models.New(models.KindMF, models.Config{NumUsers: sp.NumUsers, NumItems: sp.NumItems, Dim: dim, LR: 0.05, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	s := rng.New(4)
	for epoch := 0; epoch < epochs; epoch++ {
		var batch []models.Sample
		for u := range sp.Train {
			for _, v := range sp.Train[u] {
				batch = append(batch, models.Sample{User: u, Item: v, Label: 1})
			}
			for _, v := range sp.SampleNegativesN(s, u, len(sp.Train[u])*data.NegRatio) {
				batch = append(batch, models.Sample{User: u, Item: v})
			}
		}
		for lo := 0; lo < len(batch); lo += 256 {
			m.TrainBatch(batch[lo:min(lo+256, len(batch))])
		}
	}
	return m
}

// TestBoundOrderRetiresUsers pins that the bound is live: on a trained dense
// MF at BenchmarkEvaluatorRank's shape, the bound order scores strictly fewer
// user-windows than the id order, at the same Result bit for bit. A bound
// that silently stopped pruning (an unimplemented LogitBounder, +Inf bounds,
// a retirement test that never fires) fails here.
func TestBoundOrderRetiresUsers(t *testing.T) {
	p := data.Profile{Name: "rank-bench", NumUsers: 512, NumItems: 4096, Interactions: 512 * 15,
		ZipfExponent: 1.05, Clusters: 40, ClusterBias: 0.7, MinPerUser: 5}
	sp := data.Generate(p, 1).Split(rng.New(2), 0.2)
	m := trainedMF(t, sp, 16, 10)
	e := NewEvaluator(sp)
	idRes, idWin := countWindows(e, unbounded{m}, 20)
	res, win := countWindows(e, m, 20)
	if res != idRes {
		t.Fatalf("bound order %+v, id order %+v", res, idRes)
	}
	if got := e.Rank(m, 20, 2); got != res {
		t.Fatalf("Rank %+v, one counter %+v", got, res)
	}
	t.Logf("user-windows: bound order %d, id order %d (%.2f)", win, idWin, float64(win)/float64(idWin))
	if win >= idWin {
		t.Fatalf("bound order scored %d user-windows, id order %d: nothing retired", win, idWin)
	}
}

// TestRankBoundEdgeCases holds the bound order to the id order (the engine
// FuzzRankCountMatchesNaive pins to the naive sort, and TestRankNaNRule to the
// NaN rule the sort leaves to chance) under bounds that allow no early
// retirement and under held-out logits that are NaN or −Inf, on shrunken
// batches and windows. With every item bound equal, the scan is the id order
// and a user may retire only when all their held-out items are decided, so
// the equal-bound table scores exactly the id order's user-windows.
func TestRankBoundEdgeCases(t *testing.T) {
	defer func(b, c int) { evalUsersBatch, evalScoreChunk = b, c }(evalUsersBatch, evalScoreChunk)
	const users, items = 9, 60
	logits := make(logitTable, users)
	sp := &data.Split{NumUsers: users, NumItems: items, Train: make([][]int, users), Test: make([][]int, users)}
	s := rng.New(8)
	for u := range logits {
		logits[u] = make([]float64, items)
		for v := range logits[u] {
			logits[u][v] = s.Normal(0, float64(1+v%7))
			switch (u + v) % 6 {
			case 0:
				sp.Test[u] = append(sp.Test[u], v)
			case 1, 4:
				sp.Train[u] = append(sp.Train[u], v)
			}
		}
	}
	logits[0][sp.Test[0][0]] = math.NaN()
	logits[1][sp.Test[1][1]] = math.Inf(-1)
	retired := false
	for _, top := range []float64{0, 1e3} {
		// top, when set, is every user's last held-out logit: above every
		// other logit, tied across users, so bounds fall steeply after it.
		if top != 0 {
			for u := range logits {
				logits[u][sp.Test[u][len(sp.Test[u])-1]] = top
			}
		}
		for _, shape := range []struct{ batch, chunk int }{{3, 8}, {2, 1}, {9, 60}} {
			evalUsersBatch, evalScoreChunk = shape.batch, shape.chunk
			e := NewEvaluator(sp)
			want, idWin := countWindows(e, logits, 5)
			for _, equal := range []bool{false, true} {
				got, win := countWindows(e, boundedTable{logits, equal}, 5)
				if got != want {
					t.Fatalf("top=%v equal=%v batch=%d chunk=%d: %+v, id order %+v", top, equal, shape.batch, shape.chunk, got, want)
				}
				if equal && win != idWin {
					t.Fatalf("top=%v batch=%d chunk=%d: equal bounds scored %d user-windows, id order %d",
						top, shape.batch, shape.chunk, win, idWin)
				}
				retired = retired || win < idWin
			}
		}
	}
	if !retired {
		t.Fatal("no user retired early in any case")
	}
}
