package eval

import (
	"math"

	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// rankCounter is one worker's batched rank-counting engine. Per batch of up
// to evalUsersBatch users it scores each user's held-out items as a one-user
// ScoreUsersBlockLogitsInto block, then streams the item universe one window
// at a time, scoring it only for the users with a held-out item still
// undecided. Each user's train list is walked across the window with a
// cursor, as BlockTopK walks an exclusion list, and each run of candidates
// between consecutive train items is counted against every open held-out
// item: tensor.FirstAbove jumps to the next logit at or above the item's
// LogitBand, a logit above the band beats it, and one inside the band
// compares exact probabilities through metrics.Beats. A held-out item closes
// once k candidates beat it, and a user leaves the batch once all of theirs
// have, so a user with no hit is scored only until k candidates have beaten
// each held-out item.
//
// Bitwise equivalence with the naive evaluation: by the MultiBlockScorer
// contract a logit does not depend on the block it was scored in, so the
// held-out blocks and the windows give σ exactly the per-item probabilities;
// LogitBand's promise makes every logit outside the band decide Beats as
// exact σ would; and a count stopped at k is a miss whatever the rest of the
// catalogue holds. Window width, batch size and the padding rows are
// scheduling only.
type rankCounter struct {
	e      *Evaluator
	s      models.MultiBlockScorer
	k      int
	users  []batchUser
	held   []heldItem // the batch's held-out items, user by user
	active []int      // batch positions of the users still counting
	rows   []int      // the window block's users: active ones padded to whole 4-row tiles
	ranks  []int
	scores []float64
	mat    tensor.Matrix
}

// batchUser is one batch user's counting state.
type batchUser struct {
	u      int
	lo, hi int // held[lo:hi] are the user's held-out items
	open   int // how many of them are still counting
	cursor int // the next train item at or past the window
}

// heldItem is one held-out item's count against the candidates seen so far.
type heldItem struct {
	item   int
	p      float64 // σ of its logit
	lo, hi float64 // its LogitBand
	floor  float64 // FirstAbove's threshold: a logit ≤ floor is below lo (NaN stops at every logit)
	count  int     // candidates that beat it so far
	open   bool    // still counting; at the end, a hit
}

// rankBatched writes the Recall@k and NDCG@k of e.users[lo:hi] into the
// slots of the same index, counting evalUsersBatch users at a time.
func (e *Evaluator) rankBatched(s models.MultiBlockScorer, lo, hi, k int, recalls, ndcgs []float64) {
	rc := e.newRankCounter(s, k)
	for b := lo; b < hi; b += evalUsersBatch {
		rc.rank(b, min(b+evalUsersBatch, hi), recalls, ndcgs)
	}
}

// newRankCounter sizes the engine's scratch for a batch of evalUsersBatch
// users, a window of evalScoreChunk items and 8 held-out items a user; only a
// batch or a user holding more held-out items than that fits grows it.
func (e *Evaluator) newRankCounter(s models.MultiBlockScorer, k int) *rankCounter {
	const held = 8
	return &rankCounter{
		e:      e,
		s:      s,
		k:      k,
		users:  make([]batchUser, 0, evalUsersBatch),
		held:   make([]heldItem, 0, held*evalUsersBatch),
		active: make([]int, 0, evalUsersBatch),
		rows:   make([]int, 0, evalUsersBatch+3),
		ranks:  make([]int, 0, held),
		scores: make([]float64, (evalUsersBatch+3)*evalScoreChunk),
	}
}

// rank counts users [b, be) of e.users.
func (rc *rankCounter) rank(b, be int, recalls, ndcgs []float64) {
	sp := rc.e.sp
	rc.users, rc.held, rc.active = rc.users[:0], rc.held[:0], rc.active[:0]
	for i := range be - b {
		one := rc.e.users[b+i : b+i+1]
		test := sp.Test[one[0]]
		bu := batchUser{u: one[0], lo: len(rc.held), hi: len(rc.held) + len(test)}
		logits := rc.block(1, len(test))
		rc.s.ScoreUsersBlockLogitsInto(logits, one, test)
		for j, v := range test {
			rc.held = append(rc.held, newHeldItem(v, logits.Data[j], rc.k))
			if rc.held[len(rc.held)-1].open {
				bu.open++
			}
		}
		rc.users = append(rc.users, bu)
		if bu.open > 0 {
			rc.active = append(rc.active, i)
		}
	}
	for lo := 0; lo < sp.NumItems && len(rc.active) > 0; lo += evalScoreChunk {
		hi := min(lo+evalScoreChunk, sp.NumItems)
		rc.rows = rc.rows[:0]
		for _, i := range rc.active {
			rc.rows = append(rc.rows, rc.users[i].u)
		}
		for len(rc.rows)%4 != 0 {
			rc.rows = append(rc.rows, rc.rows[0])
		}
		win := rc.block(len(rc.rows), hi-lo)
		rc.s.ScoreUsersBlockLogitsInto(win, rc.rows, rc.e.ident[lo:hi])
		still := rc.active[:0]
		for r, i := range rc.active {
			if rc.countWindow(&rc.users[i], win.Row(r), lo, hi) {
				still = append(still, i)
			}
		}
		rc.active = still
	}
	for i, bu := range rc.users {
		rc.ranks = rc.ranks[:0]
		for _, h := range rc.held[bu.lo:bu.hi] {
			if h.open {
				rc.ranks = append(rc.ranks, h.count)
			}
		}
		cands := sp.NumItems - len(sp.Train[bu.u])
		recalls[b+i], ndcgs[b+i] = hitMetrics(rc.ranks, len(sp.Test[bu.u]), min(rc.k, cands))
	}
}

// newHeldItem starts the count of a held-out item with the given logit; a NaN
// logit, or a cutoff of 0, leaves it closed — never a hit.
func newHeldItem(item int, logit float64, k int) heldItem {
	h := heldItem{item: item}
	if logit != logit || k <= 0 {
		return h
	}
	h.open = true
	h.p, h.lo, h.hi = metrics.LogitBand(logit)
	h.floor = math.Nextafter(h.lo, math.Inf(-1))
	if math.IsInf(h.lo, -1) {
		// A lower id wins a tie, so even a −Inf logit may beat an item whose σ
		// is 0: nothing can be skipped.
		h.floor = math.NaN()
	}
	return h
}

// countWindow counts one user's candidates in items [lo, hi), whose logits
// are row: each run between consecutive train items against each open
// held-out item. It reports whether the user still has one open.
func (rc *rankCounter) countWindow(bu *batchUser, row []float64, lo, hi int) bool {
	train := rc.e.sp.Train[bu.u]
	cur, v := bu.cursor, lo
	for {
		end := hi
		if cur < len(train) && train[cur] < hi {
			end = train[cur]
		}
		for h := bu.lo; h < bu.hi && v < end; h++ {
			if it := &rc.held[h]; it.open && !it.countRun(v, row[v-lo:end-lo], rc.k) {
				if bu.open--; bu.open == 0 {
					return false
				}
			}
		}
		if end == hi {
			break
		}
		v = end + 1
		cur++
	}
	bu.cursor = cur
	return true
}

// countRun adds the candidates of run — item base+j has logit run[j] — that
// beat the held-out item, and reports whether fewer than k have so far.
func (h *heldItem) countRun(base int, run []float64, k int) bool {
	for j := 0; j < len(run); j++ {
		if j += tensor.FirstAbove(run[j:], h.floor); j == len(run) {
			break
		}
		if x := run[j]; x > h.hi || (x >= h.lo && metrics.Beats(nn.Sigmoid(x), base+j, h.p, h.item)) {
			if h.count++; h.count == k {
				h.open = false
				return false
			}
		}
	}
	return true
}

// block returns a rows × cols score matrix over the engine's reused backing.
func (rc *rankCounter) block(rows, cols int) *tensor.Matrix {
	if need := rows * cols; cap(rc.scores) < need {
		rc.scores = make([]float64, need)
	}
	rc.mat = tensor.Matrix{Rows: rows, Cols: cols, Data: rc.scores[:rows*cols]}
	return &rc.mat
}
