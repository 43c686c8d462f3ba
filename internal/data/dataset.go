// Package data provides the recommendation datasets: loaders for the real
// MovieLens/Steam/Gowalla interaction files, synthetic generators calibrated
// to those datasets' published statistics (for offline reproduction), 8:2
// train/test splitting and 1:4 negative sampling as used throughout the
// paper's evaluation.
package data

import (
	"fmt"
	"sort"

	"ptffedrec/internal/bitset"
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
func (d *Dataset) Density() float64 { return d.Stats().Density }

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
	return newStats(d.Name, d.NumUsers, d.NumItems, d.NumInteractions())
}

// newStats is one Table II row: the mean profile length and the density
// derive from the interaction count, 0 over an empty universe.
func newStats(name string, users, items, interactions int) Stats {
	st := Stats{Name: name, Users: users, Items: items, Interactions: interactions}
	if users > 0 {
		st.AvgLength = float64(interactions) / float64(users)
	}
	if users > 0 && items > 0 {
		st.Density = float64(interactions) / (float64(users) * float64(items))
	}
	return st
}

// String formats the stats like the paper's Table II row.
func (s Stats) String() string {
	return fmt.Sprintf("%-16s users=%-6d items=%-6d interactions=%-8d avg_len=%-7.1f density=%.2f%%",
		s.Name, s.Users, s.Items, s.Interactions, s.AvgLength, s.Density*100)
}

// Split holds a per-user train/test partition of a Dataset. Both sides keep
// each user's items sorted and distinct, and the two sides are disjoint.
type Split struct {
	Name               string
	NumUsers, NumItems int
	Train, Test        [][]int
}

// Split partitions each user's interactions into train/test with the given
// test fraction (the paper uses 8:2). Every user keeps at least one training
// item; users with fewer than two interactions contribute nothing to test.
func (d *Dataset) Split(s *rng.Stream, testFrac float64) *Split {
	sp := newSplit(d.Name, d.NumUsers, d.NumItems)
	for u, items := range d.UserItems {
		splitUser(sp, s, u, items, testFrac)
	}
	return sp
}

// newSplit returns an empty split of the given universe.
func newSplit(name string, numUsers, numItems int) *Split {
	return &Split{
		Name:     name,
		NumUsers: numUsers,
		NumItems: numItems,
		Train:    make([][]int, numUsers),
		Test:     make([][]int, numUsers),
	}
}

// splitUser partitions one user's items into sp.Train[u]/sp.Test[u],
// drawing one permutation of the user's items from s (none for a user with
// no items). Users are split in ascending order, so the stream's draws line
// up per user whether the items come from a Dataset or a generator stream.
func splitUser(sp *Split, s *rng.Stream, u int, items []int, testFrac float64) {
	if len(items) == 0 {
		return
	}
	nTest := min(int(float64(len(items))*testFrac), len(items)-1)
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

// NegRatio is the paper's 1:4 negative sampling: negatives per positive.
const NegRatio = 4

// SampleNegativesN draws n distinct items user u has not interacted with, in
// train or test (every such item if fewer exist).
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
	seen := bitset.New(sp.NumItems)
	out := make([]int, 0, n)
	for len(out) < n {
		v := s.Intn(sp.NumItems)
		if seen.Contains(v) || sp.InTrain(u, v) || sp.InTest(u, v) {
			continue
		}
		seen.Add(v)
		out = append(out, v)
	}
	return out
}
