package candset

import (
	"reflect"
	"slices"
	"testing"

	"ptffedrec/internal/rng"
)

// naiveComplement is the reference the run-append walk must match: probe
// every element of the universe against the exclusion list.
func naiveComplement(sorted []int, n int) []int {
	var out []int
	for v := 0; v < n; v++ {
		if _, found := slices.BinarySearch(sorted, v); !found {
			out = append(out, v)
		}
	}
	return out
}

// sortedSample returns k distinct values of [0, n), ascending.
func sortedSample(s *rng.Stream, n, k int) []int {
	sorted := s.SampleInts(n, k)
	slices.Sort(sorted)
	return sorted
}

func TestAppendComplementMatchesWalk(t *testing.T) {
	s := rng.New(7).Derive("candset")
	for _, n := range []int{1, 63, 64, 65, 128, 1000} {
		for trial := 0; trial < 20; trial++ {
			sorted := sortedSample(s, n, s.Intn(n+1))
			got := AppendComplementSorted[int](nil, n, sorted)
			want := naiveComplement(sorted, n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d trial=%d: run walk %v != probe walk %v", n, trial, got, want)
			}
		}
	}
}

// FuzzAppendComplementMatchesWalk pins the eligibility contract dispersal's
// random arms rely on: the eligible list (the run-append complement of the
// upload's sorted item list) must equal the naive item-universe walk for any
// upload pattern.
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
		sorted := sortedSample(rng.New(seed).Derive("fuzz"), n, k)
		got := AppendComplementSorted[int](nil, n, sorted)
		want := naiveComplement(sorted, n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed=%d n=%d k=%d: run walk != probe walk", seed, n, k)
		}
	})
}

func TestAppendComplementSorted(t *testing.T) {
	got := AppendComplementSorted[int32](nil, 6, []int{1, 4})
	want := []int32{0, 2, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendComplementSorted = %v, want %v", got, want)
	}
	if out := AppendComplementSorted([]int{9}, 2, []int{0, 1}); !reflect.DeepEqual(out, []int{9}) {
		t.Fatalf("full exclusion should append nothing: %v", out)
	}
}

// TestAppendRangeAndWiden: the full range is what AppendComplementSorted
// gives for a nil exclusion list (an empty upload) and for an empty one, and
// it appends after what dst already holds.
func TestAppendRangeAndWiden(t *testing.T) {
	r := AppendComplementSorted[int](nil, 4, nil)
	if !reflect.DeepEqual(r, []int{0, 1, 2, 3}) {
		t.Fatalf("complement of a nil list = %v", r)
	}
	if e := AppendComplementSorted[int](nil, 4, []int{}); !reflect.DeepEqual(e, r) {
		t.Fatalf("complement of an empty list = %v", e)
	}
	if ri := AppendComplementSorted([]int{9}, 4, nil); !reflect.DeepEqual(ri, []int{9, 0, 1, 2, 3}) {
		t.Fatalf("complement appended to {9} = %v", ri)
	}
}
