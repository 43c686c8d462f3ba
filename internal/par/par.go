// Package par provides the small deterministic fork–join primitive behind the
// parallel round engine and the parallel evaluator.
//
// Determinism contract: For distributes loop indices over goroutines, but the
// caller decides what each index writes. As long as fn(i) writes only to
// slot i of a pre-sized output (and any shared reads are warmed beforehand),
// the result is identical for every worker count — reductions then happen
// sequentially over the slots in index order, so even floating-point sums are
// bitwise-stable.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: any value <= 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForChunks splits [0, n) into contiguous chunks of the given size and runs
// fn(lo, hi) for each chunk, distributing chunks over at most workers
// goroutines. Chunk boundaries depend only on n and size — never on workers —
// so per-chunk results a caller collects (and later reduces in chunk order)
// are identical for every worker count.
func ForChunks(n, size, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if size <= 0 {
		size = 1
	}
	nChunks := (n + size - 1) / size
	For(nChunks, workers, func(c int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// For runs fn(i) for every i in [0, n), distributing indices over at most
// workers goroutines, the calling goroutine one of them. workers <= 1
// degenerates to a plain loop on the calling goroutine. Indices are claimed
// through an atomic counter, so each runs exactly once; fn must confine its
// writes to per-index state.
//
// workers is additionally clamped to GOMAXPROCS: the determinism contract
// makes results independent of the goroutine count, so spawning more
// goroutines than schedulable threads buys nothing and costs scheduler
// churn — on a single-core host, an oversubscribed fan-out is strictly
// slower than the plain loop it replaces.
func For(n, workers int, fn func(i int)) {
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var f fork
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer f.wg.Done()
			f.work(n, fn)
		}()
	}
	f.work(n, fn)
	f.wg.Wait()
}

// fork is one For call's shared state: the next unclaimed index and the
// spawned workers still running.
type fork struct {
	next atomic.Int64
	wg   sync.WaitGroup
}

// work runs fn on claimed indices until none is left.
func (f *fork) work(n int, fn func(i int)) {
	for {
		i := int(f.next.Add(1)) - 1
		if i >= n {
			return
		}
		fn(i)
	}
}
