package candset

import (
	"reflect"
	"testing"

	"ptffedrec/internal/bitset"
	"ptffedrec/internal/rng"
)

// naiveComplement is the reference the word walk must match: probe every
// element of the universe against the set.
func naiveComplement(s *bitset.Set, n int) []int32 {
	var out []int32
	for v := 0; v < n; v++ {
		if !s.Contains(v) {
			out = append(out, int32(v))
		}
	}
	return out
}

func TestAppendComplementMatchesWalk(t *testing.T) {
	s := rng.New(7).Derive("candset")
	for _, n := range []int{1, 63, 64, 65, 128, 1000} {
		for trial := 0; trial < 20; trial++ {
			set := bitset.New(n)
			k := s.Intn(n + 1)
			for _, v := range s.SampleInts(n, k) {
				set.Add(v)
			}
			got := AppendComplement[int32](nil, set, n)
			want := naiveComplement(set, n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d trial=%d: word walk %v != probe walk %v", n, trial, got, want)
			}
		}
	}
}

// FuzzAppendComplementMatchesWalk pins the dispersal engine's eligibility
// contract: the eligible list its random arms build (the bitset's word-walk
// complement) must equal the naive item-universe walk for any upload pattern.
func FuzzAppendComplementMatchesWalk(f *testing.F) {
	f.Add(uint64(1), 100, 10)
	f.Add(uint64(2), 64, 64)
	f.Add(uint64(3), 1, 0)
	f.Add(uint64(4), 129, 1)
	f.Fuzz(func(t *testing.T, seed uint64, n, k int) {
		if n <= 0 || n > 4096 {
			t.Skip()
		}
		if k < 0 {
			k = -k
		}
		if k > n {
			k = n
		}
		set := bitset.New(n)
		s := rng.New(seed).Derive("fuzz")
		for _, v := range s.SampleInts(n, k) {
			set.Add(v)
		}
		got := AppendComplement[int32](nil, set, n)
		want := naiveComplement(set, n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed=%d n=%d k=%d: word walk != probe walk", seed, n, k)
		}
	})
}

func TestAppendComplementSorted(t *testing.T) {
	got := AppendComplementSorted[int32](nil, 6, []int{1, 4})
	want := []int32{0, 2, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendComplementSorted = %v, want %v", got, want)
	}
	gotInt := AppendComplementSorted[int](nil, 3, nil)
	if !reflect.DeepEqual(gotInt, []int{0, 1, 2}) {
		t.Fatalf("empty exclusion: %v", gotInt)
	}
	if out := AppendComplementSorted[int]([]int{9}, 2, []int{0, 1}); !reflect.DeepEqual(out, []int{9}) {
		t.Fatalf("full exclusion should append nothing: %v", out)
	}
}

// TestAppendRangeAndWiden: the full range is what AppendComplement gives for
// a nil set (no upload stored) and for an empty one, in both element types.
func TestAppendRangeAndWiden(t *testing.T) {
	r := AppendComplement[int32](nil, nil, 4)
	if !reflect.DeepEqual(r, []int32{0, 1, 2, 3}) {
		t.Fatalf("complement of a nil set = %v", r)
	}
	if e := AppendComplement[int32](nil, bitset.New(4), 4); !reflect.DeepEqual(e, r) {
		t.Fatalf("complement of an empty set = %v", e)
	}
	for _, s := range []*bitset.Set{nil, bitset.New(4)} {
		if ri := AppendComplement([]int{9}, s, 4); !reflect.DeepEqual(ri, []int{9, 0, 1, 2, 3}) {
			t.Fatalf("[]int complement appended to {9} = %v", ri)
		}
	}
}
