package bitset

import (
	"reflect"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := New(130) // spans three words
	if len(s.Words()) != 3 || s.Count() != 0 {
		t.Fatalf("fresh set: words=%d count=%d", len(s.Words()), s.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		s.Add(i)
	}
	s.Add(63) // duplicate add is a no-op
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false", i)
		}
	}
	for _, i := range []int{1, 62, 65, 128} {
		if s.Contains(i) {
			t.Fatalf("Contains(%d) = true", i)
		}
	}
}

func TestForEachAscending(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 127, 128, 199}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
}

func TestReset(t *testing.T) {
	s := New(70)
	s.Add(1)
	s.Add(69)
	s.Reset()
	if s.Count() != 0 || s.Contains(1) || s.Contains(69) {
		t.Fatal("Reset did not clear the set")
	}
	s.Add(5)
	if !s.Contains(5) || s.Count() != 1 {
		t.Fatal("set unusable after Reset")
	}
}
