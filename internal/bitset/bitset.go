// Package bitset provides a fixed-capacity bit set over a dense integer
// universe. The federated server uses one per responder to answer "was item v
// in this client's upload?" during dispersal, and negative sampling marks the
// items it has drawn in one: O(1) membership over the item catalogue in one
// allocation instead of a hash set.
package bitset

import "math/bits"

// Set is a bit set over [0, n) for the n given to New. The zero value is
// unusable; call New.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n elements.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Add inserts i into the set. i must be in [0, n).
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	var c int
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset removes every element, keeping the allocation.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Words exposes the set's backing words (64 elements per word, bit i of word
// w is element w*64+i). Read-only: callers must not modify the slice. It
// exists so complement walks (internal/candset) can enumerate non-members a
// word at a time instead of probing every element.
func (s *Set) Words() []uint64 { return s.words }

// ForEach calls fn for every element in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}
