// Package candset holds the two complement walks that define "the items this
// user can still be shown": a merge walk over a sorted exclusion list (the
// evaluator's per-user path — candidates are the complement of the sorted
// train list) and a word walk over an exclusion bitset (dispersal, whose
// eligibility is the upload bitset). Neither caller keeps a list between
// calls; both fill per-worker scratch, and list contents depend only on the
// inputs, never on worker counts or call order.
package candset

import (
	"math/bits"

	"ptffedrec/internal/bitset"
)

// AppendComplementSorted appends the ascending complement of sorted over
// [0, n) to dst — every value in [0, n) not present in the ascending slice
// sorted. One merge walk; the single definition of "candidate set", which the
// evaluator's per-window walk is fuzz-pinned against.
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
