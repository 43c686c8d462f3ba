// Package data provides the recommendation datasets: loaders for the real
// MovieLens/Steam/Gowalla interaction files, synthetic generators calibrated
// to those datasets' published statistics (for offline reproduction), 8:2
// train/test splitting and 1:4 negative sampling as used throughout the
// paper's evaluation.
package data

import (
	"fmt"
	"sort"

	"ptffedrec/internal/rng"
)

// Dataset is an implicit-feedback interaction set. Items each user has
// interacted with are stored sorted for O(log n) membership tests.
type Dataset struct {
	Name               string
	NumUsers, NumItems int
	// UserItems[u] is the sorted list of items user u interacted with.
	UserItems [][]int
}

// NewDataset builds a Dataset from raw (user, item) pairs, deduplicating and
// sorting each user's profile.
func NewDataset(name string, numUsers, numItems int, pairs [][2]int) (*Dataset, error) {
	ui := make([][]int, numUsers)
	seen := make([]map[int]bool, numUsers)
	for _, p := range pairs {
		u, v := p[0], p[1]
		if u < 0 || u >= numUsers {
			return nil, fmt.Errorf("data: user %d outside [0,%d)", u, numUsers)
		}
		if v < 0 || v >= numItems {
			return nil, fmt.Errorf("data: item %d outside [0,%d)", v, numItems)
		}
		if seen[u] == nil {
			seen[u] = map[int]bool{}
		}
		if seen[u][v] {
			continue
		}
		seen[u][v] = true
		ui[u] = append(ui[u], v)
	}
	for u := range ui {
		sort.Ints(ui[u])
	}
	return &Dataset{Name: name, NumUsers: numUsers, NumItems: numItems, UserItems: ui}, nil
}

// NumInteractions returns the total number of user–item interactions.
func (d *Dataset) NumInteractions() int {
	n := 0
	for _, items := range d.UserItems {
		n += len(items)
	}
	return n
}

// Density returns interactions / (users × items).
func (d *Dataset) Density() float64 {
	if d.NumUsers == 0 || d.NumItems == 0 {
		return 0
	}
	return float64(d.NumInteractions()) / (float64(d.NumUsers) * float64(d.NumItems))
}

// AvgProfileLen returns the mean number of interactions per user.
func (d *Dataset) AvgProfileLen() float64 {
	if d.NumUsers == 0 {
		return 0
	}
	return float64(d.NumInteractions()) / float64(d.NumUsers)
}

// HasInteraction reports whether user u interacted with item v.
func (d *Dataset) HasInteraction(u, v int) bool {
	items := d.UserItems[u]
	i := sort.SearchInts(items, v)
	return i < len(items) && items[i] == v
}

// ItemPopularity returns the interaction count per item.
func (d *Dataset) ItemPopularity() []int {
	pop := make([]int, d.NumItems)
	for _, items := range d.UserItems {
		for _, v := range items {
			pop[v]++
		}
	}
	return pop
}

// Stats is one row of the paper's Table II.
type Stats struct {
	Name         string
	Users        int
	Items        int
	Interactions int
	AvgLength    float64
	Density      float64
}

// Stats summarises the dataset in the shape of Table II.
func (d *Dataset) Stats() Stats {
	return Stats{
		Name:         d.Name,
		Users:        d.NumUsers,
		Items:        d.NumItems,
		Interactions: d.NumInteractions(),
		AvgLength:    d.AvgProfileLen(),
		Density:      d.Density(),
	}
}

// String formats the stats like the paper's Table II row.
func (s Stats) String() string {
	return fmt.Sprintf("%-16s users=%-6d items=%-6d interactions=%-8d avg_len=%-7.1f density=%.2f%%",
		s.Name, s.Users, s.Items, s.Interactions, s.AvgLength, s.Density*100)
}

// Split holds a per-user train/test partition of a Dataset. Both sides keep
// each user's items sorted.
type Split struct {
	Name               string
	NumUsers, NumItems int
	Train, Test        [][]int
}

// Split partitions each user's interactions into train/test with the given
// test fraction (the paper uses 8:2). Every user keeps at least one training
// item; users with fewer than two interactions contribute nothing to test.
func (d *Dataset) Split(s *rng.Stream, testFrac float64) *Split {
	sp := &Split{
		Name:     d.Name,
		NumUsers: d.NumUsers,
		NumItems: d.NumItems,
		Train:    make([][]int, d.NumUsers),
		Test:     make([][]int, d.NumUsers),
	}
	for u, items := range d.UserItems {
		if len(items) == 0 {
			continue
		}
		nTest := int(float64(len(items)) * testFrac)
		if nTest >= len(items) {
			nTest = len(items) - 1
		}
		perm := s.Perm(len(items))
		for i, pi := range perm {
			if i < nTest {
				sp.Test[u] = append(sp.Test[u], items[pi])
			} else {
				sp.Train[u] = append(sp.Train[u], items[pi])
			}
		}
		sort.Ints(sp.Train[u])
		sort.Ints(sp.Test[u])
	}
	return sp
}

// InTrain reports whether item v is in user u's training positives.
func (sp *Split) InTrain(u, v int) bool {
	items := sp.Train[u]
	i := sort.SearchInts(items, v)
	return i < len(items) && items[i] == v
}

// InTest reports whether item v is in user u's held-out positives.
func (sp *Split) InTest(u, v int) bool {
	items := sp.Test[u]
	i := sort.SearchInts(items, v)
	return i < len(items) && items[i] == v
}

// SampleNegatives draws ratio×len(positives) items the user has not
// interacted with (neither train nor test), without replacement when
// possible. This implements the paper's 1:4 negative sampling.
func (sp *Split) SampleNegatives(s *rng.Stream, u int, ratio int) []int {
	want := len(sp.Train[u]) * ratio
	return sp.SampleNegativesN(s, u, want)
}

// SampleNegativesN draws exactly n non-interacted items for user u (or every
// non-interacted item if fewer exist).
func (sp *Split) SampleNegativesN(s *rng.Stream, u, n int) []int {
	if n <= 0 {
		return nil
	}
	interacted := len(sp.Train[u]) + len(sp.Test[u])
	free := sp.NumItems - interacted
	if free <= 0 {
		return nil
	}
	if n >= free {
		// Dense fallback: enumerate all non-interacted items.
		out := make([]int, 0, free)
		for v := 0; v < sp.NumItems; v++ {
			if !sp.InTrain(u, v) && !sp.InTest(u, v) {
				out = append(out, v)
			}
		}
		s.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		v := s.Intn(sp.NumItems)
		if seen[v] || sp.InTrain(u, v) || sp.InTest(u, v) {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}
