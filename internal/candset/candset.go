// Package candset is the shared candidate/eligibility machinery behind the
// evaluator's candidate cache and the dispersal engine's random arms:
// ascending item-id lists packed as int32 (four bytes per entry) with one
// contiguous backing array for the cache, plus the complement walks that
// build a list — a merge walk over a sorted exclusion list (the evaluator)
// and a word walk over an exclusion bitset (dispersal, which keeps no list
// between calls: eligibility is the upload bitset).
//
// Everything here carries the repository's determinism contract: list
// contents depend only on the inputs, never on worker counts or build order.
// BuildPacked in particular lays lists out by a size prefix-sum computed
// before any filling happens, so each list is written by exactly one
// goroutine into its own pre-assigned range.
package candset

import (
	"math/bits"

	"ptffedrec/internal/bitset"
	"ptffedrec/internal/par"
)

// Packed stores n ascending int32 lists in one contiguous backing array —
// the storage layout shared by the evaluation candidate cache and anything
// else that keeps many per-user item lists alive at once. Immutable after
// construction.
type Packed struct {
	off []int
	ids []int32
}

// List returns list i, aliasing the backing array.
func (p *Packed) List(i int) []int32 { return p.ids[p.off[i]:p.off[i+1]] }

// MemoryBytes reports the cache's resident footprint: the packed int32
// entries plus the offset index.
func (p *Packed) MemoryBytes() int64 {
	return int64(cap(p.ids))*4 + int64(cap(p.off))*8
}

// BuildPacked builds n packed lists on a worker pool. size(i) must return
// list i's exact length; fill(i, dst) must write list i into dst (which has
// that length). The layout is fixed by the size prefix-sum before any fill
// runs and every list is filled by exactly one goroutine into its own range,
// so the result is identical for every worker count. workers <= 0 means
// GOMAXPROCS.
func BuildPacked(n, workers int, size func(i int) int, fill func(i int, dst []int32)) *Packed {
	p := &Packed{off: make([]int, n+1)}
	for i := 0; i < n; i++ {
		p.off[i+1] = p.off[i] + size(i)
	}
	p.ids = make([]int32, p.off[n])
	par.For(n, par.Workers(workers), func(i int) {
		// The full slice expression caps the destination at the list's own
		// range: a fill that violates its size contract panics here instead
		// of silently appending into the next list's range.
		fill(i, p.ids[p.off[i]:p.off[i+1]:p.off[i+1]])
	})
	return p
}

// AppendComplementSorted appends the ascending complement of sorted over
// [0, n) to dst — every value in [0, n) not present in the ascending slice
// sorted. One merge walk; the single definition of "candidate set" shared by
// the int32 cache builds and the per-worker []int streaming rebuilds.
func AppendComplementSorted[T int | int32](dst []T, n int, sorted []int) []T {
	si := 0
	for v := 0; v < n; v++ {
		if si < len(sorted) && sorted[si] == v {
			si++
			continue
		}
		dst = append(dst, T(v))
	}
	return dst
}

// AppendComplement appends the ascending complement of the bitset s over
// [0, n) to dst; a nil set excludes nothing, so its complement is all of
// [0, n). It walks the set's backing words — 64 memberships per load —
// instead of probing every element, which is what makes per-client
// eligibility builds cheap when the excluded set is a small fraction of the
// universe. The result is element-for-element identical to the naive probe
// walk (fuzz-verified by FuzzAppendComplementMatchesWalk).
func AppendComplement[T int | int32](dst []T, s *bitset.Set, n int) []T {
	if s == nil {
		for v := 0; v < n; v++ {
			dst = append(dst, T(v))
		}
		return dst
	}
	for wi, w := range s.Words() {
		w = ^w
		base := wi << 6
		for w != 0 {
			v := base + bits.TrailingZeros64(w)
			if v >= n {
				return dst
			}
			dst = append(dst, T(v))
			w &= w - 1
		}
	}
	return dst
}

// Widen copies an int32 list into an []int scratch slice (reusing dst's
// storage when it has capacity) for callers whose downstream APIs take ints.
func Widen(dst []int, src []int32) []int {
	if cap(dst) < len(src) {
		dst = make([]int, len(src))
	} else {
		dst = dst[:len(src)]
	}
	for i, v := range src {
		dst[i] = int(v)
	}
	return dst
}
