package emb

import (
	"fmt"
	"testing"
)

// colliding returns n ids from start up whose probe runs all begin at the
// last cell of a 32-cell index, and so at the last cell of the 8- and
// 16-cell tables it grows through: each lookup walks the whole run and
// wraps past the table's end.
func colliding(start, n int) []int {
	probe := index{shift: 64 - 5}
	var ids []int
	for id := start; len(ids) < n; id++ {
		if probe.home(id) == 31 {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestIndexMatchesMap drives the index and a Go map through the same
// first-touch sequences and checks every lookup's position and its added
// flag. The sequences touch id 0, ids about 2³¹, ids whose probe runs share a
// home cell, and enough distinct ids to double the table eleven times. Each
// sequence runs three times over one index, Reset between, touched in a
// different order each time; a reset index must hold no cell.
func TestIndexMatchesMap(t *testing.T) {
	var growth []int
	for i := 0; i < 5000; i++ {
		growth = append(growth, i*idStride)
	}
	const near = 1 << 31
	cases := map[string][]int{
		"zero":                {0, 0, 1, 0, 2, 1},
		"near 2^31":           {near - 1, near, near + 1, near - 2, near - 1, 1<<32 - 1, near, 0},
		"colliding":           colliding(0, 15),
		"colliding near 2^31": append(colliding(near-64, 15), colliding(near-64, 15)...),
		"growth":              append(growth, growth...),
	}
	for name, seq := range cases {
		var x index
		var ids []int
		for pass := 0; pass < 3; pass++ {
			want := map[int]int{}
			for k := range seq {
				id := seq[k]
				if pass == 1 {
					id = seq[len(seq)-1-k]
				}
				what := fmt.Sprintf("%s, pass %d, lookup %d of id %d", name, pass, k, id)
				pos, added := x.lookup(ids, id)
				if p, ok := want[id]; ok {
					if added || pos != p {
						t.Fatalf("%s: got (%d, added %v), want (%d, present)", what, pos, added, p)
					}
					continue
				}
				if !added || pos != len(ids) {
					t.Fatalf("%s: got (%d, added %v), want (%d, added)", what, pos, added, len(ids))
				}
				want[id] = pos
				ids = append(ids, id)
			}
			if n := occupied(&x); n != len(ids) || 2*len(ids) > len(x.cells) {
				t.Fatalf("%s, pass %d: %d cells hold %d ids in a %d-cell table", name, pass, n, len(ids), len(x.cells))
			}
			x.reset(ids)
			ids = ids[:0]
			if n := occupied(&x); n != 0 {
				t.Fatalf("%s, pass %d: %d cells left after reset", name, pass, n)
			}
		}
	}
}

// occupied counts the index's non-empty cells.
func occupied(x *index) int {
	n := 0
	for _, c := range x.cells {
		if c != 0 {
			n++
		}
	}
	return n
}
