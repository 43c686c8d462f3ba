package bitset

import (
	"slices"
	"testing"
)

// members lists the set's elements in [0, n) by probing each one.
func members(s *Set, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if s.Contains(i) {
			out = append(out, i)
		}
	}
	return out
}

func TestSetBasics(t *testing.T) {
	s := New(130) // spans three words
	if got := members(s, 130); got != nil {
		t.Fatalf("fresh set holds %v", got)
	}
	want := []int{0, 63, 64, 129}
	for _, i := range want {
		s.Add(i)
	}
	s.Add(63) // duplicate add is a no-op
	if got := members(s, 130); !slices.Equal(got, want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
}
