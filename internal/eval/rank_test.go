package eval

import (
	"fmt"
	"math"
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// logitTable scores user u's item v as the logit logits[u][v].
type logitTable [][]float64

func (l logitTable) ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users, items []int) {
	for i, u := range users {
		for j, v := range items {
			dst.Row(i)[j] = l[u][v]
		}
	}
}

// fuzzLogit maps a fuzz byte onto a logit. The high nibble picks a base: the
// inverted pair's lower logit and its mirror, more points on both branches
// of σ where adjacent doubles invert or collapse, saturated and subnormal
// values, ±Inf and ±0. The low nibble steps it −8..7 ulps. Nibble 15 is a
// coarse grid instead, for exact duplicates.
func fuzzLogit(b byte) float64 {
	bases := [...]float64{
		-1.0208601135704396, 1.0208601135704396, -0.75, -1.5, 0.6, 1.9,
		0, math.Copysign(0, -1), 26, 37, 40, -30, -710, math.Inf(1), math.Inf(-1),
	}
	hi, lo := int(b>>4), int(b&15)
	if hi == len(bases) {
		return float64(lo)/4 - 2
	}
	x := bases[hi]
	for ; lo < 8; lo++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	for ; lo > 8; lo-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	return x
}

// FuzzRankCountMatchesNaive pins the rank-counting engine to naiveRank bit
// for bit: a catalogue of n items, seven users whose logits come from
// logitBytes through fuzzLogit (cycled, offset per user), train and test
// lists from two masks (test wins a clash, an empty train list is allowed),
// batches of three users and 8-item windows, so train and held-out items sit
// at window edges, and workers 1, 2 and 8. The logit table is ranked in id
// order, in bound order with its tightest bounds and with every bound equal,
// and so are a dense MF and a LightGCN trained on the split, the bounded
// models, whose users retire mid-catalogue.
func FuzzRankCountMatchesNaive(f *testing.F) {
	f.Add(40, []byte{0x80, 0x81, 0x7f}, []byte{0x81, 0x80}, []byte{0x22, 0x04}, 20)
	// The inverted pair: user 0's even items at −1.0208601135704396 + 1 ulp,
	// odd ones at the pair's lower logit, whose σ is the larger; items 1 and
	// 9 held out, and item 1 is the one hit at k = 1.
	f.Add(16, []byte{0x09, 0x08}, []byte{0x00}, []byte{0x02}, 1)
	f.Add(33, []byte{0xd8, 0xe8, 0x68, 0x78, 0x98, 0xa8, 0xc8}, []byte{0x80, 0x01}, []byte{0x41, 0x10}, 5)
	f.Add(64, []byte{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7}, []byte{0x81}, []byte{0x24, 0x42}, 20)
	f.Add(24, []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x11, 0x12, 0x13, 0x14}, []byte{}, []byte{0xff}, 3)
	f.Fuzz(func(t *testing.T, n int, logitBytes, trainMask, testMask []byte, k int) {
		if n <= 0 || n > 200 || len(logitBytes) == 0 || len(testMask) == 0 || k < 0 || k > n+2 {
			t.Skip()
		}
		const users = 7
		sp := &data.Split{NumUsers: users, NumItems: n, Train: make([][]int, users), Test: make([][]int, users)}
		logits := make(logitTable, users)
		for u := range logits {
			logits[u] = make([]float64, n)
			for v := range logits[u] {
				i := u*n + v
				logits[u][v] = fuzzLogit(logitBytes[(i+u)%len(logitBytes)])
				switch {
				case testMask[i/8%len(testMask)]>>(i%8)&1 == 1:
					sp.Test[u] = append(sp.Test[u], v)
				case len(trainMask) > 0 && trainMask[i/8%len(trainMask)]>>(i%8)&1 == 1:
					sp.Train[u] = append(sp.Train[u], v)
				}
			}
		}
		defer func(b, c int) { evalUsersBatch, evalScoreChunk = b, c }(evalUsersBatch, evalScoreChunk)
		evalUsersBatch, evalScoreChunk = 3, 8
		e := NewEvaluator(sp)
		scorers := []models.MultiBlockScorer{logits, boundedTable{logits, false}, boundedTable{logits, true}}
		for _, kind := range []models.Kind{models.KindMF, models.KindLightGCN} {
			scorers = append(scorers, trainedModel(t, kind, sp))
		}
		for i, s := range scorers {
			want := naiveRank(s, sp, k)
			for _, workers := range []int{1, 2, 8} {
				if got := e.Rank(s, k, workers); got != want {
					t.Fatalf("scorer %d workers=%d k=%d: rank count %+v, naive %+v", i, workers, k, got, want)
				}
			}
		}
	})
}

// TestRankNaNRule pins what the engine may not leave to chance: a NaN logit
// never beats a held-out item, and a held-out item whose own logit is NaN is
// never a hit. One user, eight items: items 1 and 5 are held out, item 5's
// logit is NaN, and of the other candidates only item 6 (logit 3) beats
// item 1 (logit 2) — items 0 and 3 are NaN, item 2 is in training. So item 1
// ranks 1 of 2 relevant, for windows that cut the run anywhere.
func TestRankNaNRule(t *testing.T) {
	nan := math.NaN()
	logits := logitTable{{nan, 2, 9, nan, 1, nan, 3, -1}}
	sp := &data.Split{NumUsers: 1, NumItems: 8, Train: [][]int{{2}}, Test: [][]int{{1, 5}}}
	r, n := metrics.HitMetrics([]int{1}, 2, 8-1)
	want := Result{Recall: r, NDCG: n, Users: 1}
	if want.Recall != 0.5 {
		t.Fatalf("reference recall %v, want 0.5", want.Recall)
	}
	defer func(c int) { evalScoreChunk = c }(evalScoreChunk)
	for _, chunk := range []int{1, 3, 8} {
		evalScoreChunk = chunk
		e := NewEvaluator(sp)
		if got := e.Rank(logits, 20, 1); got != want {
			t.Fatalf("chunk=%d: rank count %+v, want %+v", chunk, got, want)
		}
	}
}

// TestRankCountMatchesOracle holds the engine to the BlockTopK body it
// replaced (eval_oracle_test.go) on trained models of every kind, for the
// shipped batch and window (128 users, 256 items), the 16 × 512 they
// replaced, shrunken ones, and a 2 × 1 shape whose 5-logit score scratch
// some user's held-out list outgrows.
func TestRankCountMatchesOracle(t *testing.T) {
	defer func(b, c int) { evalUsersBatch, evalScoreChunk = b, c }(evalUsersBatch, evalScoreChunk)
	d := data.Generate(data.ML100KSmall, 5)
	sp := d.Split(rng.New(6), 0.2)
	if evalUsersBatch != 128 || evalScoreChunk != 256 {
		t.Fatalf("shipped shape %d × %d, want the 128 × 256 pinned here", evalUsersBatch, evalScoreChunk)
	}
	maxHeld := 0
	for _, test := range sp.Test {
		maxHeld = max(maxHeld, len(test))
	}
	if maxHeld <= (2+3)*1 {
		t.Fatalf("largest held-out list %d fits the 2 × 1 shape's scratch", maxHeld)
	}
	for _, kind := range []models.Kind{models.KindMF, models.KindNeuMF, models.KindLightGCN, models.KindNGCF} {
		m := trainedModel(t, kind, sp)
		for _, shape := range []struct{ batch, chunk int }{{128, 256}, {16, 512}, {5, 37}, {2, 1}, {1, 1}} {
			evalUsersBatch, evalScoreChunk = shape.batch, shape.chunk
			e := NewEvaluator(sp)
			want := oracleRank(e, m, 20)
			if got := e.Rank(m, 20, 2); got != want {
				t.Fatalf("%s batch=%d chunk=%d: rank count %+v, oracle %+v", kind, shape.batch, shape.chunk, got, want)
			}
		}
	}
}

// BenchmarkEvaluatorRank times one worker's evaluation at rank-heavy's shape —
// an MF scorer at d = 16 over 4 096 items, about 15 interactions a user, 512
// users — trained until held-out items rank well above chance: the BlockTopK
// body the engine replaced ("oracle", at the shipped batch and window) beside
// the rank-counting engine ("count") in bound order swept over batch ∈ {16,
// 64, 128, 256} and window ∈ {128, 256, 512}, the sweep evalUsersBatch and
// evalScoreChunk were chosen from, and in id order ("count-id", the scorer
// without its bounds) at the shipped shape. The count arms report the
// user-windows they score per op. Every arm reports 0 allocs/op once warm.
func BenchmarkEvaluatorRank(b *testing.B) {
	const dim = 16
	p := data.Profile{Name: "rank-bench", NumUsers: 512, NumItems: 4096, Interactions: 512 * 15,
		ZipfExponent: 1.05, Clusters: 40, ClusterBias: 0.7, MinPerUser: 5}
	sp := data.Generate(p, 1).Split(rng.New(2), 0.2)
	m := trainedMF(b, sp, dim, 10)
	e := NewEvaluator(sp)
	users := e.Users()
	recalls, ndcgs := make([]float64, users), make([]float64, users)
	run := func(b *testing.B, batch func(lo, hi int)) {
		all := func() {
			for lo := 0; lo < users; lo += evalUsersBatch {
				batch(lo, min(lo+evalUsersBatch, users))
			}
		}
		all() // warms the score backings
		b.ReportAllocs()
		for b.Loop() {
			all()
		}
		var agg metrics.RankEval
		for i := range recalls {
			agg.AddUser(recalls[i], ndcgs[i])
		}
		_, ndcg := agg.Mean()
		b.ReportMetric(ndcg, "ndcg")
	}
	count := func(b *testing.B, s models.MultiBlockScorer) {
		ord := e.newScanOrder(s)
		rc := e.newRankCounter(s, &ord, 20)
		run(b, func(lo, hi int) { rc.rank(lo, hi, recalls, ndcgs) })
		b.ReportMetric(float64(rc.windows)/float64(b.N+1), "user-windows/op")
	}
	b.Run("oracle", func(b *testing.B) {
		o := newOracleEval(e, 20)
		run(b, func(lo, hi int) { o.batch(m, lo, hi, recalls, ndcgs) })
	})
	b.Run("count-id", func(b *testing.B) { count(b, unbounded{m}) })
	defer func(b, c int) { evalUsersBatch, evalScoreChunk = b, c }(evalUsersBatch, evalScoreChunk)
	for _, batch := range []int{16, 64, 128, 256} {
		for _, window := range []int{128, 256, 512} {
			b.Run(fmt.Sprintf("count/batch=%d/window=%d", batch, window), func(b *testing.B) {
				evalUsersBatch, evalScoreChunk = batch, window
				count(b, m)
			})
		}
	}
}
