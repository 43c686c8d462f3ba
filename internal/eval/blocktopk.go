package eval

import (
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/tensor"
)

// BlockTopK is one worker's batched top-K engine: for a batch of users it
// ranks each user's items outside an ascending exclusion list by the hidden
// model's logit and keeps the top k. Eq. 9's hard half (internal/fed), whose
// eligible items are the complement of the upload, selects through it;
// evaluation needs ranks, not lists, and counts them with rankCounter.
//
// Select scores the batch against the item universe one window at a time
// with a single ScoreUsersBlockLogitsInto call, walks each user's exclusion
// list across the window with a cursor, and pushes every gap between
// consecutive excluded items into that user's logit-domain selector as one
// PushRun — the run of logits starting at the gap's first item. So only
// batch×window logits ever exist, and the sigmoid is paid per heap insertion,
// not per candidate.
//
// Bitwise equivalence with ranking the candidate list directly (σ of a
// one-user block over the complement, then metrics.TopK), piece by piece: σ
// of a window's logits equals that block's values for any window boundary
// (per-element independence, the MultiBlockScorer contract), so scoring the
// whole universe and reading only candidate positions yields exactly the
// logits of scoring the candidate list; the runs are pushed ascending in item
// id, so pushing item ids preserves the direct path's (score desc, position
// asc) selection order; and LogitTopKSelector resolves σ-collapsed ties and
// σ's non-monotone rounding exactly as a probability-domain selection does.
// Window width and batch size are scheduling only and never change a result.
//
// The selectors borrow k-wide segments of three shared heap slabs, so the
// engine costs a fixed handful of allocations and a warm Select none.
type BlockTopK struct {
	items    []int // identity list 0..numItems-1, shared read-only
	window   int
	k        int // cutoff, and the slab stride
	scores   []float64
	mat      tensor.Matrix
	sels     []metrics.LogitTopKSelector
	selIdx   []int
	selFloor []float64
	selProb  []float64
	cursors  []int
}

// NewBlockTopK returns an engine that selects the top k of items (the
// identity list 0..numItems-1, which it only reads) for up to batch users per
// Select, scoring window items per kernel call.
func NewBlockTopK(items []int, batch, window, k int) *BlockTopK {
	return &BlockTopK{
		items:    items,
		window:   window,
		k:        k,
		sels:     make([]metrics.LogitTopKSelector, batch),
		selIdx:   make([]int, batch*k),
		selFloor: make([]float64, batch*k),
		selProb:  make([]float64, batch*k),
		cursors:  make([]int, batch),
	}
}

// Select ranks, for each i, the items outside excl[i] by users[i]'s logit
// under s and keeps the top k — all of them when fewer are eligible; Into
// reads the winners. Each excl[i] must be strictly ascending and within the
// item universe.
func (t *BlockTopK) Select(s models.MultiBlockScorer, users []int, excl [][]int) {
	n := len(users)
	for i := 0; i < n; i++ {
		lo, hi := i*t.k, (i+1)*t.k
		t.sels[i].ResetBacked(t.k, t.selIdx[lo:lo:hi], t.selFloor[lo:lo:hi], t.selProb[lo:lo:hi])
		t.cursors[i] = 0
	}
	for lo := 0; lo < len(t.items); lo += t.window {
		hi := min(lo+t.window, len(t.items))
		if need := n * (hi - lo); cap(t.scores) < need {
			t.scores = make([]float64, need)
		}
		t.mat = tensor.Matrix{Rows: n, Cols: hi - lo, Data: t.scores[:n*(hi-lo)]}
		s.ScoreUsersBlockLogitsInto(&t.mat, users, t.items[lo:hi])
		for i := 0; i < n; i++ {
			ex, sel, row := excl[i], &t.sels[i], t.mat.Row(i)
			cur, v := t.cursors[i], lo
			for ; cur < len(ex) && ex[cur] < hi; cur++ {
				sel.PushRun(v, row[v-lo:ex[cur]-lo])
				v = ex[cur] + 1
			}
			sel.PushRun(v, row[v-lo:hi-lo])
			t.cursors[i] = cur
		}
	}
}

// Into writes the i-th user's winners of the last Select into dst, reusing
// its storage, ordered (σ(logit) desc, item asc).
func (t *BlockTopK) Into(i int, dst []int) []int { return t.sels[i].Into(dst) }
