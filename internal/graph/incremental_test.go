package graph

import (
	"math"
	"slices"
	"testing"

	"ptffedrec/internal/tensor"
)

// fullBuild constructs the from-scratch Bipartite for the given per-user edge
// sets, adding edges in the same order the federated server does: users
// ascending, fill order within a user.
func fullBuild(numUsers, numItems int, rows [][]Edge) *Bipartite {
	g := NewBipartite(numUsers, numItems)
	for u, es := range rows {
		for _, e := range es {
			g.AddEdge(u, e.Item, e.Weight)
		}
	}
	return g
}

// requireCSRBitwise fails unless a and b are exactly equal: same shape, same
// row pointers, same columns, and bit-identical values.
func requireCSRBitwise(t *testing.T, name string, a, b *tensor.CSR) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.NNZ() != b.NNZ() {
		t.Fatalf("%s: NNZ %d vs %d", name, a.NNZ(), b.NNZ())
	}
	for r := 0; r <= a.Rows; r++ {
		if a.RowPtr[r] != b.RowPtr[r] {
			t.Fatalf("%s: RowPtr[%d] = %d vs %d", name, r, a.RowPtr[r], b.RowPtr[r])
		}
	}
	for i := range a.Val {
		if a.ColIdx[i] != b.ColIdx[i] {
			t.Fatalf("%s: ColIdx[%d] = %d vs %d", name, i, a.ColIdx[i], b.ColIdx[i])
		}
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			t.Fatalf("%s: Val[%d] = %x vs %x", name, i, a.Val[i], b.Val[i])
		}
	}
}

// incState drives one Incremental engine plus the reference per-user edge
// sets, checking the assembled operators against the full build after every
// commit. The adjacency destinations are reused across rounds, so the
// buffer-reuse path is exercised continuously.
type incState struct {
	users, items int
	workers      int
	inc          *Incremental
	rows         [][]Edge
	adj, adjSelf *tensor.CSR
}

func newIncState(users, items, workers int) *incState {
	return &incState{
		users:   users,
		items:   items,
		workers: workers,
		inc:     NewIncremental(users, items),
		rows:    make([][]Edge, users),
	}
}

// round replaces the given users' edge sets (staged ascending) and verifies
// both assembled operators bitwise against the from-scratch build.
func (st *incState) round(t *testing.T, staged []int, edges [][]Edge) {
	t.Helper()
	st.inc.Begin()
	for i, u := range staged {
		st.inc.StageUser(u, edges[i])
		st.rows[u] = append(st.rows[u][:0], edges[i]...)
	}
	st.inc.Commit(st.workers)
	full := fullBuild(st.users, st.items, st.rows)
	st.adj = st.inc.AdjInto(st.adj, st.workers)
	st.adjSelf = st.inc.AdjSelfInto(st.adjSelf, st.workers)
	requireCSRBitwise(t, "adj", full.NormalizedAdj(), st.adj)
	requireCSRBitwise(t, "adj+I", full.NormalizedAdjSelf(), st.adjSelf)

	// Assemble each operator again from the same commit into the same CSR,
	// as NGCF.SetGraph and repeated probes do: whatever scratch the first
	// assembly kept must not change the second.
	first, firstSelf := cloneCSR(st.adj), cloneCSR(st.adjSelf)
	st.adj = st.inc.AdjInto(st.adj, st.workers)
	st.adjSelf = st.inc.AdjSelfInto(st.adjSelf, st.workers)
	requireCSRBitwise(t, "adj again", first, st.adj)
	requireCSRBitwise(t, "adj+I again", firstSelf, st.adjSelf)
}

// cloneCSR returns a deep copy of m.
func cloneCSR(m *tensor.CSR) *tensor.CSR {
	return &tensor.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: slices.Clone(m.RowPtr),
		ColIdx: slices.Clone(m.ColIdx), Val: slices.Clone(m.Val)}
}

// TestIncrementalMatchesFullScripted walks a hand-written delta sequence
// through the cases the engine must get right: bootstrap, overlapping
// re-uploads that shift shared item degrees, duplicate items in one upload,
// shrinking and emptying a row, and touching previously isolated nodes. Then
// the two shapes a fresh engine is staged in outside the server: a graph
// client's one-user universe and the centralized trainer's whole split.
func TestIncrementalMatchesFullScripted(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		st := newIncState(6, 5, workers)
		// Bootstrap: three users.
		st.round(t, []int{0, 2, 4}, [][]Edge{
			{{Item: 0, Weight: 0.9}, {Item: 3, Weight: 0.4}},
			{{Item: 3, Weight: 0.7}, {Item: 1, Weight: 0.2}},
			{{Item: 0, Weight: 0.5}},
		})
		// Re-upload user 2 (changes item 3's degree, and with it user 0's
		// unchanged entry) and add user 1 with a duplicate item.
		st.round(t, []int{1, 2}, [][]Edge{
			{{Item: 2, Weight: 0.6}, {Item: 2, Weight: 0.3}, {Item: 4, Weight: 0.8}},
			{{Item: 3, Weight: 0.1}},
		})
		// Shrink user 1 to one item, empty user 4 entirely (item 0 loses a
		// contribution), and introduce user 5 on a fresh item.
		st.round(t, []int{1, 4, 5}, [][]Edge{
			{{Item: 4, Weight: 0.35}},
			{},
			{{Item: 1, Weight: 0.95}, {Item: 0, Weight: 0.05}},
		})
		// A no-op round: nothing staged, nothing may change.
		st.round(t, nil, nil)
		// Re-upload everyone at once (full participation degenerates to a
		// rebuild of every row).
		st.round(t, []int{0, 1, 2, 3, 4, 5}, [][]Edge{
			{{Item: 1, Weight: 0.11}},
			{{Item: 2, Weight: 0.22}},
			{{Item: 3, Weight: 0.33}},
			{{Item: 4, Weight: 0.44}},
			{{Item: 0, Weight: 0.55}},
			{},
		})

		// A graph client: its one user's hard positives at weight 1, then
		// the dispersed soft positives at or above the threshold, two of
		// which repeat a hard positive.
		client := newIncState(1, 7, workers)
		client.round(t, []int{0}, [][]Edge{{
			{Item: 4, Weight: 1}, {Item: 1, Weight: 1}, {Item: 6, Weight: 1},
			{Item: 1, Weight: 0.83}, {Item: 0, Weight: 0.61}, {Item: 4, Weight: 0.57},
		}})
		// The centralized trainer: every user, one without items, committed
		// in the engine's first round at weight 1.
		central := newIncState(5, 6, workers)
		central.round(t, []int{0, 1, 2, 3, 4}, [][]Edge{
			{{Item: 2, Weight: 1}, {Item: 0, Weight: 1}},
			{{Item: 0, Weight: 1}, {Item: 5, Weight: 1}, {Item: 3, Weight: 1}},
			{},
			{{Item: 5, Weight: 1}},
			{{Item: 3, Weight: 1}, {Item: 2, Weight: 1}, {Item: 0, Weight: 1}},
		})
	}
}

// TestIncrementalRandomRounds runs a larger randomized absorb sequence per
// worker count, spanning participation from a single user to everyone.
func TestIncrementalRandomRounds(t *testing.T) {
	const users, items = 120, 40
	for _, workers := range []int{1, 2, 8} {
		st := newIncState(users, items, workers)
		state := uint64(777)
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		rounds := 8
		if testing.Short() {
			rounds = 4
		}
		for r := 0; r < rounds; r++ {
			part := 1 + next(users)
			staged := make([]int, 0, part)
			seen := make(map[int]bool, part)
			for len(staged) < part {
				u := next(users)
				if !seen[u] {
					seen[u] = true
					staged = append(staged, u)
				}
			}
			// StageUser requires ascending order, as the store delivers.
			for i := 1; i < len(staged); i++ {
				for j := i; j > 0 && staged[j] < staged[j-1]; j-- {
					staged[j], staged[j-1] = staged[j-1], staged[j]
				}
			}
			edges := make([][]Edge, len(staged))
			for i := range staged {
				m := next(10)
				es := make([]Edge, 0, m)
				for j := 0; j < m; j++ {
					es = append(es, Edge{Item: next(items), Weight: 0.05 + float64(next(95))/100})
				}
				edges[i] = es
			}
			st.round(t, staged, edges)
		}
	}
}

// TestIncrementalBadWeight pins the refusal contract: StageUser panics on a
// weight that is not strictly positive — zero, negative or NaN — the moment
// it is staged, as it does on an out-of-range item, rather than maintaining
// data-dependent row membership.
func TestIncrementalBadWeight(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("StageUser accepted weight %v", w)
				}
			}()
			inc := NewIncremental(2, 2)
			inc.Begin()
			inc.StageUser(0, []Edge{{Item: 1, Weight: 0.5}, {Item: 0, Weight: w}})
		}()
	}
}

// FuzzIncremental feeds randomized delta sequences (derived from the fuzzed
// seed) through the engine, asserting the maintained adjacency bitwise-equals
// a full NormalizedAdj build after every round.
func FuzzIncremental(f *testing.F) {
	f.Add(uint64(1), uint8(3))
	f.Add(uint64(42), uint8(1))
	f.Add(uint64(9999), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, nRounds uint8) {
		const users, items = 30, 12
		state := seed
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		st := newIncState(users, items, 1+next(8))
		rounds := int(nRounds%6) + 1
		for r := 0; r < rounds; r++ {
			var staged []int
			for u := 0; u < users; u++ {
				if next(100) < 1+next(100) {
					staged = append(staged, u)
				}
			}
			edges := make([][]Edge, len(staged))
			for i := range staged {
				m := next(8)
				for j := 0; j < m; j++ {
					edges[i] = append(edges[i], Edge{Item: next(items), Weight: 0.05 + float64(next(95))/100})
				}
			}
			st.round(t, staged, edges)
		}
	})
}

// TestIncrementalMemoryBytes sanity-checks the footprint accounting: a
// populated engine reports more than an empty one, and both are positive.
func TestIncrementalMemoryBytes(t *testing.T) {
	empty := NewIncremental(10, 10).MemoryBytes()
	if empty <= 0 {
		t.Fatal("empty engine reports no memory")
	}
	inc := NewIncremental(10, 10)
	inc.Begin()
	inc.StageUser(3, []Edge{{Item: 1, Weight: 0.5}, {Item: 7, Weight: 0.25}})
	inc.Commit(1)
	if inc.MemoryBytes() <= empty {
		t.Fatal("populated engine does not report edge payload")
	}
}
