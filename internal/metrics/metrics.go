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
package metrics

import (
	"math"
	"sort"

	"ptffedrec/internal/nn"
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

// PrecisionAtK returns |topK ∩ relevant| / k.
func PrecisionAtK(ranked []int, relevant map[int]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	if k == 0 {
		return 0
	}
	hits := 0
	for _, v := range ranked[:k] {
		if relevant[v] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// HitRateAtK returns 1 if any relevant item appears in the top k.
func HitRateAtK(ranked []int, relevant map[int]bool, k int) float64 {
	if k > len(ranked) {
		k = len(ranked)
	}
	for _, v := range ranked[:k] {
		if relevant[v] {
			return 1
		}
	}
	return 0
}

// F1Sets returns the F1 score of a predicted set against a truth set.
func F1Sets(predicted, truth map[int]bool) float64 {
	if len(predicted) == 0 || len(truth) == 0 {
		return 0
	}
	tp := 0
	for v := range predicted {
		if truth[v] {
			tp++
		}
	}
	if tp == 0 {
		return 0
	}
	precision := float64(tp) / float64(len(predicted))
	recall := float64(tp) / float64(len(truth))
	return 2 * precision * recall / (precision + recall)
}

// AUC returns the probability a random positive outscores a random negative.
func AUC(posScores, negScores []float64) float64 {
	if len(posScores) == 0 || len(negScores) == 0 {
		return 0.5
	}
	wins := 0.0
	for _, p := range posScores {
		for _, n := range negScores {
			switch {
			case p > n:
				wins++
			case p == n:
				wins += 0.5
			}
		}
	}
	return wins / float64(len(posScores)*len(negScores))
}

// TopK returns the indices of the k largest scores, highest first. Ties
// break toward the lower index for determinism.
//
// It stable-sorts a full O(n) index permutation, which makes it the reference
// semantics of the selection engine: TopKInto and LogitTopKSelector produce
// the exact same index order in O(n log k) without materialising the
// permutation. Every caller outside tests uses those; TopK remains as the
// reference they and the evaluator are tested against.
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
// push raw logits one (index, logit) pair at a time — chunk-wise from a
// batched scorer that never materialises a probability vector — and the
// selector keeps the k candidates whose probabilities σ(logit) are highest in
// a bounded min-heap, computing σ (nn.Sigmoid) lazily — only for pushes that
// survive the logit-domain reject test, roughly k·ln(n/k) of n pushes —
// instead of once per candidate. Into yields the selected indices in
// (σ(logit) desc, index asc) order, bitwise-identical to TopK over σ(logit)
// of every push.
//
// Tie safety is the subtle part of that equivalence. σ is monotone
// non-decreasing but not injective in floats: distinct logits collapse to the
// same probability wherever σ's slope drops below the local ulp spacing (the
// saturated tails, but also adjacent doubles anywhere), so a logit-domain
// strict comparison would order candidates that the probability domain ties —
// and ties break toward the smaller index. The selector therefore imposes one
// contract: within a selection, indices must be pushed in ascending order
// (true of every scoring stream in this codebase — candidate lists and item
// universes are walked ascending). Then a newcomer can only lose a
// probability tie, so "logit ≤ worst kept logit" is a sound reject — monotone
// σ makes the newcomer's probability ≤ the worst kept probability, and
// equality is a tie the newcomer's larger index loses — and every surviving
// push compares and stores exact probabilities, keeping the heap's order the
// probability domain's.
//
// The zero value is unusable: call Reset(k) before each selection.
type LogitTopKSelector struct {
	k     int
	idx   []int
	logit []float64
	prob  []float64
}

// Reset prepares the selector for a fresh selection of up to k indices,
// retaining the previous selection's storage.
func (s *LogitTopKSelector) Reset(k int) {
	s.k = k
	s.idx = s.idx[:0]
	s.logit = s.logit[:0]
	s.prob = s.prob[:0]
}

// ResetBacked is Reset with caller-provided backing: idx, logit and prob must
// have capacity ≥ k and belong to this selector alone. Callers running many
// selectors per batch slice the backings out of three shared slabs, so a
// batch scratch costs three allocations instead of three per selector — the
// heap never outgrows k, so the slab segments never reallocate.
func (s *LogitTopKSelector) ResetBacked(k int, idx []int, logit, prob []float64) {
	s.k = k
	s.idx = idx[:0]
	s.logit = logit[:0]
	s.prob = prob[:0]
}

// worse reports whether heap slot a holds a worse candidate than slot b —
// lower probability, or equal probability and larger index. The heap order is
// entirely probability-domain; logits are carried only for Push's reject test.
func (s *LogitTopKSelector) worse(a, b int) bool {
	if s.prob[a] != s.prob[b] {
		return s.prob[a] < s.prob[b]
	}
	return s.idx[a] > s.idx[b]
}

func (s *LogitTopKSelector) swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.logit[a], s.logit[b] = s.logit[b], s.logit[a]
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

// Push offers one (index, logit) pair. Indices must be distinct and ascending
// within a selection (see the type comment); logits may repeat freely. The
// overwhelmingly common case on a full selection — the newcomer's logit does
// not beat the worst kept candidate's — returns from this small, inlinable
// wrapper without computing a sigmoid; the σ evaluation and heap maintenance
// live in pushHeap.
func (s *LogitTopKSelector) Push(i int, logit float64) {
	if s.k <= 0 || (len(s.idx) == s.k && logit <= s.logit[0]) {
		return
	}
	s.pushHeap(i, logit)
}

// pushHeap inserts a pair that survived Push's logit-domain reject test:
// growing the heap while it is below k, otherwise comparing exact
// probabilities against the root — where a collapsed tie still rejects the
// newcomer (larger index) — and replacing it on a genuine win.
func (s *LogitTopKSelector) pushHeap(i int, logit float64) {
	p := nn.Sigmoid(logit)
	if len(s.idx) < s.k {
		s.idx = append(s.idx, i)
		s.logit = append(s.logit, logit)
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
	if p <= s.prob[0] {
		// The logits differed but the probabilities collapsed (p == root's) —
		// the ascending-index contract makes the newcomer the tie's loser — or
		// p < root's, which monotone σ permits only through rounding; either
		// way the probability domain rejects.
		return
	}
	s.idx[0], s.logit[0], s.prob[0] = i, logit, p
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

// Add accumulates one user's ranked list.
func (e *RankEval) Add(ranked []int, relevant map[int]bool, k int) {
	if len(relevant) == 0 {
		return
	}
	e.Recall += RecallAtK(ranked, relevant, k)
	e.NDCG += NDCGAtK(ranked, relevant, k)
	e.Users++
}

// AddUser accumulates precomputed per-user metric values. The parallel
// evaluator computes (recall, ndcg) per user concurrently and feeds them back
// here sequentially in user order, so the floating-point sum matches the
// serial Add path exactly.
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
