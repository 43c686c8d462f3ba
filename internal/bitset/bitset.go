// Package bitset provides a fixed-capacity bit set over a dense integer
// universe. Negative sampling marks the items it has drawn in one: O(1)
// membership over the item catalogue in one allocation instead of a hash set.
package bitset

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

// Reset removes every element, keeping the allocation.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}
