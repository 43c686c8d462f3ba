package models

import (
	"sync"

	"ptffedrec/internal/par"
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

// shapePool returns the workspace pool, among pools, for shape key (an
// embedding width, or NGCF's graph shape), creating it over build on first
// use: every model of a kind and shape shares one. A federation holds one
// model per client, but only as many workspaces as there are goroutines in a
// model at once.
func shapePool[K comparable, W any](pools *sync.Map, key K, build func(K) *W) *sync.Pool {
	if p, ok := pools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(key, &sync.Pool{New: func() any { return build(key) }})
	return p.(*sync.Pool)
}
