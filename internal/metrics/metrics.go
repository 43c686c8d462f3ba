// Package metrics implements the evaluation measures used in the paper:
// Recall@K and NDCG@K for recommendation quality (computed over all items the
// user has not interacted with, as in §IV-B) and the F1 score for the Top
// Guess Attack's inference quality.
//
// It also hosts the selection engine those measures run on: TopK (the
// stable-sort reference), TopKInto (bounded-heap partial selection over a
// materialised probability vector) and LogitTopKSelector (the streaming
// logit-domain selector, which defers the sigmoid to the candidates that
// matter). All three produce the same index order — (score desc, index asc).
// Beats states that order for one pair, LogitBand bounds where the logit
// alone decides it, and HitMetrics turns the positions of the relevant items
// under it into Recall@K and NDCG@K, bitwise RecallAtK and NDCGAtK.
package metrics

import (
	"math"
	"sort"

	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// RecallAtK returns |topK ∩ relevant| / |relevant|.
func RecallAtK(ranked []int, relevant map[int]bool, k int) float64 {
	if len(relevant) == 0 {
		return 0
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	hits := 0
	for _, v := range ranked[:k] {
		if relevant[v] {
			hits++
		}
	}
	return float64(hits) / float64(len(relevant))
}

// NDCGAtK returns the normalized discounted cumulative gain at rank k with
// binary relevance.
func NDCGAtK(ranked []int, relevant map[int]bool, k int) float64 {
	if len(relevant) == 0 {
		return 0
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	var dcg float64
	for i, v := range ranked[:k] {
		if relevant[v] {
			dcg += 1 / math.Log2(float64(i)+2)
		}
	}
	ideal := len(relevant)
	if ideal > k {
		ideal = k
	}
	var idcg float64
	for i := 0; i < ideal; i++ {
		idcg += 1 / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

// F1Counts returns the F1 score of a prediction of predicted items, tp of
// them true, against truth true items.
func F1Counts(tp, predicted, truth int) float64 {
	if predicted == 0 || truth == 0 || tp == 0 {
		return 0
	}
	precision := float64(tp) / float64(predicted)
	recall := float64(tp) / float64(truth)
	return 2 * precision * recall / (precision + recall)
}

// HitMetrics returns Recall@k and NDCG@k for a user with the given number of
// relevant items, from the 0-based ranks, ascending, of those that placed in
// the top k; k must already be clamped to the candidate count. It sums the
// same terms in the same order as RecallAtK and NDCGAtK over the ranked list
// those ranks come from, so the values are bitwise theirs.
func HitMetrics(ranks []int, relevant, k int) (recall, ndcg float64) {
	if relevant == 0 {
		return 0, 0
	}
	var dcg float64
	for _, r := range ranks {
		dcg += 1 / math.Log2(float64(r)+2)
	}
	var idcg float64
	for i := 0; i < min(relevant, k); i++ {
		idcg += 1 / math.Log2(float64(i)+2)
	}
	recall = float64(len(ranks)) / float64(relevant)
	if idcg == 0 {
		return recall, 0
	}
	return recall, dcg / idcg
}

// Beats reports whether candidate c with score pc ranks ahead of candidate t
// with score pt in TopK's order: a higher score, or an equal one and a lower
// index. A NaN on either side makes it false.
func Beats(pc float64, c int, pt float64, t int) bool {
	return pc > pt || (pc == pt && c < t)
}

// sigmoidErr bounds nn.Sigmoid's relative rounding error wherever σ is a
// normal float: math.Exp is within one ulp (its portable body and the amd64
// assembly alike) and σ's one addition and one division add half an ulp each,
// so the computed σ is within about 2⁻⁵¹ of the true one, relatively. 2⁻⁴⁰
// leaves a factor of 2¹¹ over that, and still keeps LogitBand about 10⁻¹¹
// wide at moderate logits, where hardly a candidate falls inside.
const sigmoidErr = 0x1p-40

// LogitBand returns p = nn.Sigmoid(t) and the logits [lo, hi] whose σ may
// compare either way with p under rounding: for every x < lo,
// nn.Sigmoid(x) < p, and for every x > hi, nn.Sigmoid(x) > p. The computed σ
// is not monotone — x = −1.0208601135704396 and the next double up invert,
// and such pairs, at most a few ulps apart, are common on σ's negative branch
// for |x| in [0.5, 2) — so only a logit inside the band needs the exact σ.
//
// Write R for sigmoidErr and σ for the exact sigmoid, which the computed one
// is within R·σ of. A logit more than 2R from t in ln σ then compares the
// right way, and q = 1 − p − R is a lower bound on σ(−t).
//   - lo. ln σ has slope σ(−y), which falls as y grows, so
//     ln σ(t) − ln σ(x) ≥ (t−x)·σ(−t), and t − lo = 3R/q puts every x < lo
//     more than 2R below t.
//   - hi. For 0 < hi − t ≤ 1 the slope on [t, hi] is at least σ(−t)/e, so
//     hi − t = 8R/q puts every x > hi more than 2R above t. Past that,
//     hi is +Inf.
//   - When q < 2R, σ(−t) < 4R, so t > 26 and σ(t) − σ(x) > σ(−25) − 4R > 2R
//     for every x < 25: lo is 25 and hi +Inf. This covers t = +Inf.
//   - Below t = −708, σ(t) leaves the normal floats and the relative bound
//     fails: lo is −Inf and hi is −707, where σ is e times larger.
//
// The constants' slack (3R against 2R, 8R against 2e·R) is at least R/σ(−t),
// far above the rounding of t ∓ δ for |t| ≤ 708. A NaN t gets a NaN band,
// which every comparison fails.
func LogitBand(t float64) (p, lo, hi float64) {
	p = nn.Sigmoid(t)
	switch {
	case t != t:
		return p, t, t
	case t < -708:
		return p, math.Inf(-1), -707
	}
	lo, hi = 25, math.Inf(1)
	if q := 1 - p - sigmoidErr; q >= 2*sigmoidErr {
		lo = t - 3*sigmoidErr/q
		if d := 8 * sigmoidErr / q; d <= 1 {
			hi = t + d
		}
	}
	return p, lo, hi
}

// TopK returns the indices of the k largest scores, highest first. Ties
// break toward the lower index for determinism.
//
// It stable-sorts a full O(n) index permutation, which makes it the reference
// semantics of the selection engine: TopKInto and LogitTopKSelector produce
// the exact same index order in O(n log k) without materialising the
// permutation, and Beats states the same order for one pair, which the
// evaluator counts ranks by. Every caller outside tests uses those; TopK
// remains as the reference they and the evaluator are tested against.
func TopK(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// TopKInto returns the indices of the k largest scores ordered
// (score desc, index asc) — bitwise-identical to TopK's stable-sort order —
// selecting through a bounded min-heap: O(n log k) instead of O(n log n),
// with zero allocations once dst has capacity k. dst's storage is reused
// when possible.
func TopKInto(dst []int, scores []float64, k int) []int {
	if k > len(scores) {
		k = len(scores)
	}
	if k <= 0 {
		return dst[:0]
	}
	// heap[i] is an index into scores; the root is the worst kept candidate:
	// lower score, or equal score and larger index.
	worse := func(a, b int) bool {
		if scores[a] != scores[b] {
			return scores[a] < scores[b]
		}
		return a > b
	}
	if cap(dst) < k {
		dst = make([]int, k)
	}
	heap := dst[:k]
	siftDown := func(i, size int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < size && worse(heap[l], heap[m]) {
				m = l
			}
			if r < size && worse(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := range heap {
		heap[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(i, k)
	}
	for i := k; i < len(scores); i++ {
		if worse(heap[0], i) {
			heap[0] = i
			siftDown(0, k)
		}
	}
	// Heapsort the kept indices: popping the min-heap's root (the worst
	// remaining candidate) to the shrinking tail leaves the slice ordered
	// best-first — (score desc, index asc) — allocation-free.
	for end := k - 1; end > 0; end-- {
		heap[0], heap[end] = heap[end], heap[0]
		siftDown(0, end)
	}
	return heap
}

// LogitTopKSelector is the streaming half of the selection engine: callers
// push raw logits — chunk-wise from a batched scorer that never materialises
// a probability vector — and the selector keeps the k candidates whose
// probabilities σ(logit) are highest in a bounded min-heap, computing σ
// (nn.Sigmoid) lazily — only for pushes that survive the logit-domain reject
// test, roughly k·ln(n/k) of n pushes — instead of once per candidate. Hot
// loops push runs of consecutive indices with PushRun, which skips rejected
// logits in bulk; Push is the per-element form. Into yields the selected
// indices in (σ(logit) desc, index asc) order, bitwise-identical to TopK over
// σ(logit) of every push.
//
// Tie safety is the subtle part of that equivalence. The computed σ is
// neither injective nor monotone: distinct logits collapse to the same
// probability wherever σ's slope drops below the local ulp spacing (the
// saturated tails, but also adjacent doubles anywhere), and a few adjacent
// logits even invert (see LogitBand). So the logit order alone can neither
// rank nor reject a candidate near the worst kept one. The selector imposes
// one contract: within a selection, indices must be pushed in ascending order
// (true of every scoring stream in this codebase — candidate lists and item
// universes are walked ascending). Then a newcomer can only lose a
// probability tie, so a logit below the worst kept candidate's LogitBand is a
// sound reject — its σ is strictly lower — and every surviving push compares
// and stores exact probabilities, keeping the heap's order the probability
// domain's.
//
// The zero value is unusable: call Reset(k) before each selection.
type LogitTopKSelector struct {
	k      int
	idx    []int
	reject []float64 // per kept candidate, the logit at or below which a newcomer loses to it
	prob   []float64
}

// Reset prepares the selector for a fresh selection of up to k indices,
// retaining the previous selection's storage.
func (s *LogitTopKSelector) Reset(k int) {
	s.k = k
	s.idx = s.idx[:0]
	s.reject = s.reject[:0]
	s.prob = s.prob[:0]
}

// ResetBacked is Reset with caller-provided backing: idx, reject and prob
// must have capacity ≥ k and belong to this selector alone. Callers running
// many selectors per batch slice the backings out of three shared slabs, so a
// batch scratch costs three allocations instead of three per selector — the
// heap never outgrows k, so the slab segments never reallocate.
func (s *LogitTopKSelector) ResetBacked(k int, idx []int, reject, prob []float64) {
	s.k = k
	s.idx = idx[:0]
	s.reject = reject[:0]
	s.prob = prob[:0]
}

// worse reports whether heap slot a holds a worse candidate than slot b —
// lower probability, or equal probability and larger index. The heap order is
// entirely probability-domain; the reject thresholds only skip losers.
func (s *LogitTopKSelector) worse(a, b int) bool {
	if s.prob[a] != s.prob[b] {
		return s.prob[a] < s.prob[b]
	}
	return s.idx[a] > s.idx[b]
}

func (s *LogitTopKSelector) swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.reject[a], s.reject[b] = s.reject[b], s.reject[a]
	s.prob[a], s.prob[b] = s.prob[b], s.prob[a]
}

func (s *LogitTopKSelector) siftDown(i, size int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < size && s.worse(l, m) {
			m = l
		}
		if r < size && s.worse(r, m) {
			m = r
		}
		if m == i {
			return
		}
		s.swap(i, m)
		i = m
	}
}

// Push offers one (index, logit) pair, the per-element form of PushRun.
// Indices must be distinct and ascending within a selection (see the type
// comment); logits may repeat freely. On a full selection a newcomer at or
// below the worst kept candidate's reject threshold is rejected without a
// sigmoid; the σ evaluation and heap maintenance live in pushHeap.
func (s *LogitTopKSelector) Push(i int, logit float64) {
	if s.k <= 0 || (len(s.idx) == s.k && logit <= s.reject[0]) {
		return
	}
	s.pushHeap(i, logit)
}

// PushRun offers logits[j] at index base+j for j ascending, exactly as that
// many Push calls would, so base must continue the selection's ascending
// indices. Once the selection is full, tensor.FirstAbove skips straight to
// the next logit above the worst kept candidate's reject threshold — every
// skipped logit is one Push rejects — then that logit is pushed and the
// threshold re-read.
func (s *LogitTopKSelector) PushRun(base int, logits []float64) {
	if s.k <= 0 {
		return
	}
	j := 0
	for ; j < len(logits) && len(s.idx) < s.k; j++ {
		s.pushHeap(base+j, logits[j])
	}
	for j < len(logits) {
		if j += tensor.FirstAbove(logits[j:], s.reject[0]); j < len(logits) {
			s.pushHeap(base+j, logits[j])
			j++
		}
	}
}

// pushHeap inserts a pair that survived the logit-domain reject test:
// growing the heap while it is below k, otherwise comparing exact
// probabilities against the root — where a collapsed tie still rejects the
// newcomer (larger index) — and replacing it on a genuine win.
func (s *LogitTopKSelector) pushHeap(i int, logit float64) {
	p, lo, _ := LogitBand(logit)
	if len(s.idx) == s.k && p <= s.prob[0] {
		// The probabilities collapsed (p == root's) — the ascending-index
		// contract makes the newcomer the tie's loser — or p < root's inside
		// the root's LogitBand, where σ need not follow the logits; either way
		// the probability domain rejects.
		return
	}
	// A later logit ≤ lo's predecessor is below lo, so its σ is strictly
	// lower; when lo is −Inf that threshold only skips −Inf, whose σ of 0 can
	// at best tie.
	reject := math.Nextafter(lo, math.Inf(-1))
	if len(s.idx) < s.k {
		s.idx = append(s.idx, i)
		s.reject = append(s.reject, reject)
		s.prob = append(s.prob, p)
		for c := len(s.idx) - 1; c > 0; {
			par := (c - 1) / 2
			if !s.worse(c, par) {
				break
			}
			s.swap(c, par)
			c = par
		}
		return
	}
	s.idx[0], s.reject[0], s.prob[0] = i, reject, p
	s.siftDown(0, s.k)
}

// Into writes the selected indices into dst (reusing its storage when it has
// capacity) ordered (σ(logit) desc, index asc). It consumes the selection:
// call Reset before pushing again.
func (s *LogitTopKSelector) Into(dst []int) []int {
	n := len(s.idx)
	for end := n - 1; end > 0; end-- {
		s.swap(0, end)
		s.siftDown(0, end)
	}
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	copy(dst, s.idx)
	return dst
}

// RankEval aggregates Recall@K and NDCG@K across users.
type RankEval struct {
	Recall, NDCG float64
	Users        int
}

// AddUser accumulates one user's metric values. The parallel evaluator
// computes (recall, ndcg) per user concurrently and feeds them back here
// sequentially in user order, so the floating-point sum is the same for every
// worker count.
func (e *RankEval) AddUser(recall, ndcg float64) {
	e.Recall += recall
	e.NDCG += ndcg
	e.Users++
}

// Mean returns the user-averaged metrics.
func (e *RankEval) Mean() (recall, ndcg float64) {
	if e.Users == 0 {
		return 0, 0
	}
	return e.Recall / float64(e.Users), e.NDCG / float64(e.Users)
}
