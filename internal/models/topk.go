package models

import "ptffedrec/internal/metrics"

// scoreBlockTopKChunk is how many scores ScoreBlockTopK materialises at a
// time. Large enough that the per-chunk kernel dispatch is amortised (and a
// multiple of NeuMF's internal 256-item forward chunks), small enough that a
// full-catalogue selection stays in cache instead of writing a NumItems-length
// score vector. A var so tests can shrink it to force multi-chunk selections
// on small candidate lists.
var scoreBlockTopKChunk = 1024

// TopKScratch carries ScoreBlockTopK's reusable state — the streaming
// selector, the chunk score buffer, and the output slice — so a caller that
// keeps one scratch per worker runs selections allocation-free.
type TopKScratch struct {
	sel    metrics.TopKSelector
	scores []float64
	out    []int
}

// ScoreBlockTopK fuses top-k selection into the batched scoring engine: it
// scores items for user u through bs in fixed-size chunks, streaming each
// chunk's scores into a bounded-heap selector, and returns the indices into
// items of the k highest scores ordered (score desc, index asc). The result
// is bitwise-identical to filling a full len(items) score vector with
// ScoreBlockInto and running metrics.TopKInto — ScoreBlockInto's contract
// makes every chunk's scores independent of how the list is sliced — but only
// scoreBlockTopKChunk scores ever exist at once.
//
// This is the single-user probability-domain engine: it scores through
// ScoreBlockInto (σ applied to every candidate) and selects with the
// probability-domain TopKSelector. The multi-user evaluator batches users
// through ScoreUsersBlockLogitsInto and selects raw logits with
// metrics.LogitTopKSelector instead — same output, fewer sigmoids — and falls
// back to this engine for streaming evaluators and scorers without the
// multi-user contract.
//
// The returned slice is backed by sc and valid until the next call with the
// same scratch.
func ScoreBlockTopK(bs BlockScorer, sc *TopKScratch, u int, items []int, k int) []int {
	if k > len(items) {
		k = len(items)
	}
	if k <= 0 {
		sc.out = sc.out[:0]
		return sc.out
	}
	chunk := scoreBlockTopKChunk
	if chunk > len(items) {
		chunk = len(items)
	}
	if cap(sc.scores) < chunk {
		sc.scores = make([]float64, chunk)
	}
	sc.sel.Reset(k)
	for off := 0; off < len(items); off += chunk {
		end := off + chunk
		if end > len(items) {
			end = len(items)
		}
		buf := sc.scores[:end-off]
		bs.ScoreBlockInto(buf, u, items[off:end])
		sc.sel.PushRow(off, buf)
	}
	sc.out = sc.sel.Into(sc.out)
	return sc.out
}
