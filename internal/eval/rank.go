package eval

import (
	"cmp"
	"math"
	"slices"

	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// scanOrder is one Rank call's item order: descending item bound, ties by
// id, for a models.LogitBounder, and for any other scorer the identity order
// with +Inf bounds, whose product with any user bound (+Inf, or NaN for a
// zero) retires no user early. It is built per call, so an Evaluator stays
// read-only.
type scanOrder struct {
	items  []int               // items[p] is the item at scan position p
	pos    []int               // pos[v] is item v's scan position
	bounds []float64           // bounds[p] bounds items[p]'s row; non-increasing, NaN read as +Inf
	b      models.LogitBounder // nil for a scorer without bounds
}

// newScanOrder orders the catalogue for scorer s.
func (e *Evaluator) newScanOrder(s models.MultiBlockScorer) scanOrder {
	n := len(e.ident)
	bounds := make([]float64, n)
	b, ok := s.(models.LogitBounder)
	if !ok {
		for p := range bounds {
			bounds[p] = math.Inf(1)
		}
		return scanOrder{items: e.ident, pos: e.ident, bounds: bounds}
	}
	byItem := make([]float64, n)
	b.LogitBoundsInto(byItem, nil, e.ident)
	for v, x := range byItem {
		if x != x {
			byItem[v] = math.Inf(1) // a NaN bound never prunes: scan it first
		}
	}
	o := scanOrder{items: slices.Clone(e.ident), pos: make([]int, n), bounds: bounds, b: b}
	slices.SortStableFunc(o.items, func(v, w int) int { return cmp.Compare(byItem[w], byItem[v]) })
	for p, v := range o.items {
		o.pos[v], o.bounds[p] = p, byItem[v]
	}
	return o
}

// rankCounter is one worker's batched rank-counting engine. Per batch of up
// to evalUsersBatch users it scores each user's held-out items as a one-user
// ScoreUsersBlockLogitsInto block, then streams the catalogue in the call's
// scanOrder one window at a time, scoring it only for the users with a
// held-out item still undecided. In each user's window row the train items
// are overwritten with NaN, which beats nothing, and the row is counted in
// one pass against every open held-out item: tensor.FirstAbove jumps to the
// next logit at or above the lowest open item's LogitBand, a logit above an
// item's band beats it, and one inside the band compares exact probabilities
// through metrics.Beats, whose tie-break id is the candidate's item id from
// the order. A held-out item closes once k candidates beat it, and a user
// leaves the batch once all of theirs have, so a user with no hit is scored
// only until k candidates have beaten each held-out item. At each window
// start a user also retires once b_u times the window's first item bound is
// below the band of every held-out item still open: bounds fall along the
// scan, so no remaining logit reaches a band, and those items finish as hits
// at the counts they hold.
//
// Bitwise equivalence with the naive evaluation: by the MultiBlockScorer
// contract a logit does not depend on the block it was scored in, so the
// held-out blocks and the windows give σ exactly the per-item probabilities;
// LogitBand's promise makes every logit outside the band decide Beats as
// exact σ would; a beat count does not depend on the order it is counted in;
// a count stopped at k is a miss whatever the rest of the catalogue holds;
// and by the LogitBounder contract every logit a retired user leaves unscored
// is at most b_u·b_v ≤ b_u·(the window's first bound), below every open
// band, so it beats nothing still counting. Window width, batch size and the
// padding rows are scheduling only.
type rankCounter struct {
	e       *Evaluator
	s       models.MultiBlockScorer
	ord     *scanOrder
	k       int
	users   []batchUser
	held    []heldItem // the batch's held-out items, user by user
	train   []int      // the scan positions of the batch's train items, user by user
	bounds  []float64  // the batch's user bounds, by batch position; 0 for a scorer without
	active  []int      // batch positions of the users still counting
	rows    []int      // the window block's users: active ones padded to whole 4-row tiles
	ranks   []int
	scores  []float64
	mat     tensor.Matrix
	windows int // user-windows scored so far, padding excluded
}

// batchUser is one batch user's counting state.
type batchUser struct {
	u        int
	lo, hi   int // held[lo:hi] are the user's held-out items
	open     int // how many of them are still counting
	tlo, thi int // train[tlo:thi] are the scan positions of the user's train items
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
func (e *Evaluator) rankBatched(s models.MultiBlockScorer, ord *scanOrder, lo, hi, k int, recalls, ndcgs []float64) {
	rc := e.newRankCounter(s, ord, k)
	for b := lo; b < hi; b += evalUsersBatch {
		rc.rank(b, min(b+evalUsersBatch, hi), recalls, ndcgs)
	}
}

// newRankCounter sizes the engine's scratch for a batch of evalUsersBatch
// users, a window of evalScoreChunk items, 8 held-out items and 32 train items
// a user; only a batch or a user holding more than that grows it.
func (e *Evaluator) newRankCounter(s models.MultiBlockScorer, ord *scanOrder, k int) *rankCounter {
	const held, train = 8, 32
	return &rankCounter{
		e:      e,
		s:      s,
		ord:    ord,
		k:      k,
		users:  make([]batchUser, 0, evalUsersBatch),
		held:   make([]heldItem, 0, held*evalUsersBatch),
		train:  make([]int, 0, train*evalUsersBatch),
		bounds: make([]float64, evalUsersBatch),
		active: make([]int, 0, evalUsersBatch),
		rows:   make([]int, 0, evalUsersBatch+3),
		ranks:  make([]int, 0, held),
		scores: make([]float64, (evalUsersBatch+3)*evalScoreChunk),
	}
}

// rank counts users [b, be) of e.users.
func (rc *rankCounter) rank(b, be int, recalls, ndcgs []float64) {
	sp, ord := rc.e.sp, rc.ord
	batch := rc.e.users[b:be]
	rc.users, rc.held, rc.train, rc.active = rc.users[:0], rc.held[:0], rc.train[:0], rc.active[:0]
	rc.bounds = slices.Grow(rc.bounds[:0], len(batch))[:len(batch)]
	if ord.b != nil {
		ord.b.LogitBoundsInto(rc.bounds, batch, nil)
	}
	for i, u := range batch {
		test := sp.Test[u]
		bu := batchUser{u: u, lo: len(rc.held), hi: len(rc.held) + len(test)}
		logits := rc.block(1, len(test))
		rc.s.ScoreUsersBlockLogitsInto(logits, batch[i:i+1], test)
		for j, v := range test {
			rc.held = append(rc.held, newHeldItem(v, logits.Data[j], rc.k))
			if rc.held[len(rc.held)-1].open {
				bu.open++
			}
		}
		slices.SortFunc(rc.held[bu.lo:], byBand)
		if bu.open > 0 {
			bu.tlo = len(rc.train)
			for _, v := range sp.Train[u] {
				rc.train = append(rc.train, ord.pos[v])
			}
			bu.thi = len(rc.train)
			rc.active = append(rc.active, i)
		}
		rc.users = append(rc.users, bu)
	}
	for lo := 0; lo < sp.NumItems && len(rc.active) > 0; lo += evalScoreChunk {
		hi := min(lo+evalScoreChunk, sp.NumItems)
		still := rc.active[:0]
		for _, i := range rc.active {
			if !rc.retired(&rc.users[i], rc.bounds[i]*ord.bounds[lo]) {
				still = append(still, i)
			}
		}
		if rc.active = still; len(rc.active) == 0 {
			break
		}
		rc.rows = rc.rows[:0]
		for _, i := range rc.active {
			rc.rows = append(rc.rows, rc.users[i].u)
		}
		for len(rc.rows)%4 != 0 {
			rc.rows = append(rc.rows, rc.rows[0])
		}
		win := rc.block(len(rc.rows), hi-lo)
		rc.s.ScoreUsersBlockLogitsInto(win, rc.rows, ord.items[lo:hi])
		rc.windows += len(rc.active)
		still = rc.active[:0]
		for r, i := range rc.active {
			if rc.countWindow(&rc.users[i], win.Row(r), lo) {
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

// retired reports whether no item from a window on can beat any of the
// user's open held-out items: reach, b_u times the window's first bound, is
// below every open item's LogitBand. A NaN or +Inf reach never retires a
// user, nor does a held-out item whose band reaches −Inf.
func (rc *rankCounter) retired(bu *batchUser, reach float64) bool {
	for _, h := range rc.held[bu.lo:bu.hi] {
		if h.open && !(reach < h.lo) {
			return false
		}
	}
	return true
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

// countWindow counts one user's candidates at scan positions [lo,
// lo+len(row)), whose logits are row, against each open held-out item in one
// pass: tensor.FirstAbove jumps to the next logit above the lowest open floor,
// and that candidate is counted against every open item. The user's train
// items in the window are first overwritten with NaN, which beats nothing.
// It reports whether the user still has an item open.
func (rc *rankCounter) countWindow(bu *batchUser, row []float64, lo int) bool {
	for _, p := range rc.train[bu.tlo:bu.thi] {
		if j := p - lo; uint(j) < uint(len(row)) {
			row[j] = math.NaN()
		}
	}
	held := rc.held[bu.lo:bu.hi]
	floor := openFloor(held)
	ids := rc.ord.items[lo : lo+len(row)]
	for j := 0; j < len(row); j++ {
		if j += tensor.FirstAbove(row[j:], floor); j == len(row) {
			break
		}
		x, p := row[j], math.NaN()
		for h := range held {
			it := &held[h]
			if !(x >= it.lo) {
				break // x beats no item from here on, and a NaN x none at all
			}
			if !it.open {
				continue
			}
			if x <= it.hi {
				if p != p {
					p = nn.Sigmoid(x)
				}
				if !metrics.Beats(p, ids[j], it.p, it.item) {
					continue
				}
			}
			if it.count++; it.count == rc.k {
				it.open = false
				if bu.open--; bu.open == 0 {
					return false
				}
				floor = openFloor(held)
			}
		}
	}
	return true
}

// byBand orders a user's held-out items open first, by ascending LogitBand
// lower edge, so a candidate below one open item's band is below every later
// one's.
func byBand(a, b heldItem) int {
	if a.open != b.open {
		if a.open {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.lo, b.lo)
}

// openFloor is the lowest FirstAbove threshold of the open held-out items:
// NaN, which stops at every logit, if any of theirs is.
func openFloor(held []heldItem) float64 {
	floor := math.Inf(1)
	for _, h := range held {
		if h.open {
			floor = min(floor, h.floor)
		}
	}
	return floor
}

// block returns a rows × cols score matrix over the engine's reused backing.
func (rc *rankCounter) block(rows, cols int) *tensor.Matrix {
	if need := rows * cols; cap(rc.scores) < need {
		rc.scores = make([]float64, need)
	}
	rc.mat = tensor.Matrix{Rows: rows, Cols: cols, Data: rc.scores[:rows*cols]}
	return &rc.mat
}
