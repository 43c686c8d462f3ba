// Package candset holds the complement walk that defines "the items this
// user can still be shown": the evaluator's per-user candidates are the
// complement of the sorted train list, and dispersal's random arms draw from
// the complement of the sorted upload list. Neither caller keeps a list
// between calls; both fill per-worker scratch, and list contents depend only
// on the inputs, never on worker counts or call order.
package candset

import "slices"

// AppendComplementSorted appends the ascending complement of sorted over
// [0, n) to dst — every value in [0, n) not present in sorted, which must be
// strictly ascending and within [0, n). It grows dst once, then writes each
// gap between consecutive excluded values as one run. The single definition
// of "candidate set", which the batched top-K engine's per-window walk is
// fuzz-pinned against. The benchmark's candset probe builds it as []int32.
func AppendComplementSorted[T int | int32](dst []T, n int, sorted []int) []T {
	dst = slices.Grow(dst, n-len(sorted))
	lo := 0
	for _, e := range sorted {
		dst = appendRun(dst, lo, e)
		lo = e + 1
	}
	return appendRun(dst, lo, n)
}

// appendRun appends lo, lo+1, …, hi-1 to dst, which has room for them.
func appendRun[T int | int32](dst []T, lo, hi int) []T {
	run := dst[len(dst) : len(dst)+hi-lo]
	for i := range run {
		run[i] = T(lo + i)
	}
	return dst[:len(dst)+len(run)]
}
