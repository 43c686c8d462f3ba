package models

import (
	"slices"

	"ptffedrec/internal/par"
	"ptffedrec/internal/tensor"
)

// trainChunkSize is the fixed shard width of the gradient-workspace engine:
// TrainBatch splits every batch into ceil(n/trainChunkSize) contiguous
// chunks, computes each chunk's gradients into a private workspace, and
// merges the workspaces in chunk order before the single optimizer step.
//
// It is a semantic constant, not a scheduling knob: the chunk boundaries fix
// the float association of the merged gradients, so they must depend only on
// the batch length — never on the worker count. That is what makes seeded
// training bitwise-identical for TrainWorkers ∈ {1, 2, …}.
const trainChunkSize = 256

// trainChunks returns the number of gradient chunks for a batch of n samples.
func trainChunks(n int) int { return (n + trainChunkSize - 1) / trainChunkSize }

// trainChunkBounds returns chunk c's half-open sample range.
func trainChunkBounds(c, n int) (lo, hi int) {
	lo = c * trainChunkSize
	hi = lo + trainChunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// resolveTrainWorkers maps Config.TrainWorkers to the worker count TrainBatch
// fans out over. Zero or negative means serial — intra-batch sharding is
// opt-in because federated clients already train on a worker pool, and lazy
// embedding tables materialise rows on read, which is unsafe to do
// concurrently.
func resolveTrainWorkers(cfg Config) int {
	w := cfg.TrainWorkers
	if w <= 1 || cfg.Lazy {
		return 1
	}
	return w
}

// forChunks fans fn out over the batch's gradient chunks.
func forChunks(n, workers int, fn func(c, lo, hi int)) {
	par.For(trainChunks(n), workers, func(c int) {
		lo, hi := trainChunkBounds(c, n)
		fn(c, lo, hi)
	})
}

// rowAccum collects sparse per-row gradient vectors for one chunk. Rows are
// replayed in first-touch order by merge — numerically immaterial (row sums
// are independent) but kept deterministic so merges never depend on map
// iteration order. The vectors live back to back in one slab, so a reset
// accumulator refills without allocating once the slab and the index have
// reached the chunk's working size.
type rowAccum struct {
	dim   int
	order []int       // touched rows, first-touch order
	slot  map[int]int // row → position in order (and in slab, ×dim)
	slab  []float64
}

func newRowAccum(dim int) *rowAccum {
	return &rowAccum{dim: dim, slot: make(map[int]int)}
}

// reset forgets every row, keeping the storage.
func (a *rowAccum) reset() {
	a.order = a.order[:0]
	a.slab = a.slab[:0]
	clear(a.slot)
}

// at returns row i's pending vector, zeroed on first touch. The slice is
// valid until the next first touch.
func (a *rowAccum) at(i int) []float64 {
	k, ok := a.slot[i]
	if !ok {
		k = len(a.order)
		a.slot[i] = k
		a.order = append(a.order, i)
		a.slab = slices.Grow(a.slab, a.dim)[:(k+1)*a.dim]
		clear(a.slab[k*a.dim:])
	}
	return a.slab[k*a.dim : (k+1)*a.dim]
}

// add accumulates g into row i's pending vector.
func (a *rowAccum) add(i int, g []float64) {
	buf := a.at(i)
	for k, v := range g {
		buf[k] += v
	}
}

// axpy accumulates s*x into row i's pending vector.
func (a *rowAccum) axpy(i int, s float64, x []float64) {
	buf := a.at(i)
	for k, v := range x {
		buf[k] += s * v
	}
}

// mergeInto replays the accumulated rows into an embedding table.
func (a *rowAccum) mergeInto(t embTable) {
	for k, i := range a.order {
		t.Accumulate(i, a.slab[k*a.dim:(k+1)*a.dim])
	}
}

// mergeIntoRows adds the accumulated rows into the matching rows of m.
func (a *rowAccum) mergeIntoRows(m *tensor.Matrix) {
	for k, i := range a.order {
		dst := m.Row(i)
		for j, v := range a.slab[k*a.dim : (k+1)*a.dim] {
			dst[j] += v
		}
	}
}
