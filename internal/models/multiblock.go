package models

import (
	"fmt"

	"ptffedrec/internal/tensor"
)

// MultiBlockScorer is the multi-user batched scoring engine's contract,
// implemented by every model in this package. ScoreUsersBlockLogitsInto fills
// dst — which must be len(users) × len(items) — with the raw pre-sigmoid logit
// of every (users[i], items[j]) pair, scoring the whole user batch against the
// shared candidate block through matrix kernels: MF and the graph models run
// one double-gathered GEMM (tensor.GatherMulMatInto) against the (propagated)
// embedding matrices, and NeuMF streams each user's row through its pooled
// chunked MLP forwards. There is no σ-domain block entry point: the batched
// evaluation and dispersal engines score logits and select under
// metrics.LogitTopKSelector's tie-safe contract, applying σ only to the
// winners they keep.
//
// The contract is strict: σ (nn.Sigmoid) of dst.Row(i) is bitwise-identical
// to ScoreItems(users[i], items) for any batch composition — so each row
// equals the same user scored as a batch of one — and evaluation metrics,
// dispersal plans, and training histories do not depend on how users are
// grouped into score batches. σ is monotone, so order is preserved, but float
// rounding can collapse distinct logits to equal probabilities, which the
// selector resolves exactly. Like ScoreItems, calls for disjoint user batches
// are safe once lazily built shared state is warm (Warmer) and the model's
// tables are dense; Lazy models materialise rows on read and must be scored
// from one goroutine.
//
// ScorePairsInto is the contract's ragged half: dst[p] = σ(logit) for the
// pair (users[p], items[p]). It batches scoring passes whose per-user item
// lists differ — dispersal's final re-scoring concatenates every client's
// chosen items into one pair list — through the gathered pair-dot kernels
// (tensor.GatherPairDotInto) or, for NeuMF, the same pooled chunked forwards
// with per-row users. Values are bitwise-identical to scoring each pair
// through the per-user paths. It is σ-domain only: its consumers ship the
// probabilities over the wire, so every pair's sigmoid is paid regardless and
// a logit variant would have no caller.
type MultiBlockScorer interface {
	ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int)
	ScorePairsInto(dst []float64, users []int, items []int)
}

// checkPairs validates a ScorePairsInto destination.
func checkPairs(dst []float64, users, items []int) {
	if len(dst) != len(users) || len(users) != len(items) {
		panic(fmt.Sprintf("models: ScorePairsInto dst[%d] for %d users × %d items",
			len(dst), len(users), len(items)))
	}
}

// checkUsersBlock validates a ScoreUsersBlockLogitsInto destination.
func checkUsersBlock(dst *tensor.Matrix, users, items []int) {
	if dst.Rows != len(users) || dst.Cols != len(items) {
		panic(fmt.Sprintf("models: ScoreUsersBlockLogitsInto dst %dx%d for %d users × %d items",
			dst.Rows, dst.Cols, len(users), len(items)))
	}
}
