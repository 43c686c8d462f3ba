package models

import (
	"fmt"

	"ptffedrec/internal/tensor"
)

// MultiBlockScorer is the one scoring contract, implemented by every model in
// this package and embedded in Recommender. ScoreUsersBlockLogitsInto fills
// dst — which must be len(users) × len(items) — with the raw pre-sigmoid logit
// of every (users[i], items[j]) pair, scoring the whole user batch against the
// shared candidate block through matrix kernels: MF and the graph models run
// one double-gathered GEMM (tensor.GatherMulMatInto) against the (propagated)
// embedding matrices, and NeuMF streams each user's row through its pooled
// chunked MLP forwards. It is logit-domain only, and every consumer applies σ
// (nn.Sigmoid) itself where it needs a probability: eval.BlockTopK, the top-K
// engine dispersal's hard half selects through, pushes logits under
// metrics.LogitTopKSelector's tie-safe contract, applying σ only to the
// winners it keeps; evaluation's rank counter scores each user's held-out
// items as a one-user block and compares its batch's window logits against
// each held-out item's metrics.LogitBand, applying σ only inside it; and a
// client's upload (Eq. 4) and dispersal's soft labels (Eq. 9) score one
// user's item list as a one-user block, applying σ to every entry shipped.
//
// The contract is strict: σ of dst.Row(i) is bitwise the per-item oracle —
// each model's per-pair scoring loop, kept in its _oracle_test.go — for any
// batch composition, so each row equals the same user scored as a batch of
// one, and evaluation metrics, dispersal plans, and training histories do not
// depend on how users are grouped into score batches. The computed σ does not
// preserve the logits' order exactly — rounding collapses distinct logits to
// equal probabilities and inverts a few adjacent ones — which the selector
// and the rank counter resolve exactly through metrics.LogitBand. Calls for
// disjoint user batches are safe once lazily built shared state is warm
// (Warmer) and the model's tables are dense; Lazy models materialise rows on
// read and must be scored from one goroutine.
type MultiBlockScorer interface {
	ScoreUsersBlockLogitsInto(dst *tensor.Matrix, users []int, items []int)
}

// checkUsersBlock validates a ScoreUsersBlockLogitsInto destination.
func checkUsersBlock(dst *tensor.Matrix, users, items []int) {
	if dst.Rows != len(users) || dst.Cols != len(items) {
		panic(fmt.Sprintf("models: ScoreUsersBlockLogitsInto dst %dx%d for %d users × %d items",
			dst.Rows, dst.Cols, len(users), len(items)))
	}
}
