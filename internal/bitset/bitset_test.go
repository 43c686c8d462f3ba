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

func TestReset(t *testing.T) {
	s := New(70)
	s.Add(1)
	s.Add(69)
	s.Reset()
	if got := members(s, 70); got != nil {
		t.Fatalf("Reset left %v in the set", got)
	}
	s.Add(5)
	if got := members(s, 70); !slices.Equal(got, []int{5}) {
		t.Fatalf("set unusable after Reset: %v", got)
	}
}
