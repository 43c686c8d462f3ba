package graph

import (
	"cmp"
	"fmt"
	"slices"

	"ptffedrec/internal/par"
	"ptffedrec/internal/tensor"
)

// Incremental holds each user's latest edge set and rebuilds the normalized
// bipartite adjacency from them. A round stages the users whose edges
// changed and commits; the commit and every assembly cost O(users + items +
// edges), the order a CSR over the whole graph costs to write anyway.
//
// The kept state is what the full build derives from the edge list:
//
//   - edges — each user's edge set, stable-sorted by item, so duplicates of
//     an item stay in fill order: the order NewCSR's stable column sort
//     leaves them in.
//   - userDeg — each user's weighted degree, summed in fill order before the
//     sort, as AddEdge sums it.
//   - itemDeg — each item's weighted degree, recomputed by every commit over
//     users ascending, fill order within a user: the full build's AddEdge
//     order. itemGroups counts the distinct users per item, the length of
//     the item's adjacency row.
//
// Values are computed with the same normVal expression as the full triplet
// build and summed per duplicate group left to right, so both adjacency
// variants assembled from this state are bitwise-identical to
// NormalizedAdj / NormalizedAdjSelf on the equivalent Bipartite — at every
// worker count. The engine requires strictly positive edge weights (the full
// build's zero-degree skip would otherwise make row membership
// data-dependent): StageUser panics on a non-positive or NaN weight, as it
// does on an out-of-range item. No caller stages one: the federated server
// and graph clients weigh an edge by a score at or above GraphThreshold,
// which fed.Config.Validate keeps in (0, 1], or by 1.
type Incremental struct {
	numUsers, numItems int

	edges      [][]incEdge
	userDeg    []float64
	itemDeg    []float64
	itemGroups []int32

	// Staging buffers: the users replaced this round (ascending) with their
	// new edge sets flattened in fill order (stagedOff offsets per user).
	stagedUsers []int32
	stagedOff   []int32
	staged      []incEdge

	// cursor is the assembly's per-item write position while it mirrors
	// user rows into item rows.
	cursor []int
}

// incEdge is one kept edge of a user: its item and weight.
type incEdge struct {
	item int32
	w    float64
}

// NewIncremental returns an empty engine over the given universe. The empty
// state is the full build of an empty edge set, so the first Commit (which
// stages every user with edges so far) needs no special case.
func NewIncremental(numUsers, numItems int) *Incremental {
	return &Incremental{
		numUsers:   numUsers,
		numItems:   numItems,
		edges:      make([][]incEdge, numUsers),
		userDeg:    make([]float64, numUsers),
		itemDeg:    make([]float64, numItems),
		itemGroups: make([]int32, numItems),
		stagedOff:  []int32{0},
	}
}

// NumUsers returns the user-side universe size.
func (inc *Incremental) NumUsers() int { return inc.numUsers }

// NumItems returns the item-side universe size.
func (inc *Incremental) NumItems() int { return inc.numItems }

// Begin resets the staging buffers for a new round of deltas.
func (inc *Incremental) Begin() {
	inc.stagedUsers = inc.stagedUsers[:0]
	inc.stagedOff = append(inc.stagedOff[:0], 0)
	inc.staged = inc.staged[:0]
}

// StageUser records user u's complete replacement edge set in fill order
// (items may repeat — duplicates accumulate like AddEdge). Users must be
// staged in ascending order, each at most once; an empty edge set clears the
// user's row. Edge.User is ignored; only Item and Weight are read. A user or
// item outside the universe panics, and so does a weight that is not strictly
// positive (NaN included).
func (inc *Incremental) StageUser(u int, edges []Edge) {
	if u < 0 || u >= inc.numUsers {
		panic(fmt.Sprintf("graph: staged user %d out of range [0,%d)", u, inc.numUsers))
	}
	if n := len(inc.stagedUsers); n > 0 && int(inc.stagedUsers[n-1]) >= u {
		panic("graph: StageUser calls must be strictly ascending by user")
	}
	inc.stagedUsers = append(inc.stagedUsers, int32(u))
	for _, e := range edges {
		if e.Item < 0 || e.Item >= inc.numItems {
			panic(fmt.Sprintf("graph: staged item %d out of range [0,%d)", e.Item, inc.numItems))
		}
		if !(e.Weight > 0) {
			panic(fmt.Sprintf("graph: staged weight %v for item %d is not strictly positive", e.Weight, e.Item))
		}
		inc.staged = append(inc.staged, incEdge{item: int32(e.Item), w: e.Weight})
	}
	inc.stagedOff = append(inc.stagedOff, int32(len(inc.staged)))
}

// incChunk is the user granularity of the parallel passes. Scheduling only:
// every user's work writes that user's own state or rows.
const incChunk = 1024

// Commit installs the staged edge sets, then recomputes every item degree.
// The install runs in parallel over staged users: each copies its span,
// sums its degree in fill order and stable-sorts the copy by item. The item
// pass runs serially over users ascending, the full build's AddEdge order,
// so the result is identical for every worker count.
func (inc *Incremental) Commit(workers int) {
	nStaged := len(inc.stagedUsers)
	if nStaged == 0 {
		return
	}
	par.ForChunks(nStaged, incChunk, par.Workers(workers), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			u := inc.stagedUsers[k]
			span := inc.staged[inc.stagedOff[k]:inc.stagedOff[k+1]]
			d := 0.0
			for _, e := range span {
				d += e.w
			}
			inc.userDeg[u] = d
			es := append(inc.edges[u][:0], span...)
			slices.SortStableFunc(es, func(a, b incEdge) int { return cmp.Compare(a.item, b.item) })
			inc.edges[u] = es
		}
	})

	clear(inc.itemDeg)
	clear(inc.itemGroups)
	for _, es := range inc.edges {
		for s, e := range es {
			inc.itemDeg[e.item] += e.w
			if s == 0 || es[s-1].item != e.item {
				inc.itemGroups[e.item]++
			}
		}
	}
}

// AdjInto assembles the normalized adjacency Â into dst (reusing its
// buffers; pass nil to allocate) and returns it. The result is
// bitwise-identical to NormalizedAdj on the equivalent Bipartite.
func (inc *Incremental) AdjInto(dst *tensor.CSR, workers int) *tensor.CSR {
	return inc.adjInto(dst, workers, false)
}

// AdjSelfInto is AdjInto for the self-loop-augmented operator Â + I,
// bitwise-identical to NormalizedAdjSelf: the unit diagonal lands first
// in user rows (col u precedes every item column U+v) and last in item rows,
// exactly where the full build's stable column sort places the appended
// identity triplets.
func (inc *Incremental) AdjSelfInto(dst *tensor.CSR, workers int) *tensor.CSR {
	return inc.adjInto(dst, workers, true)
}

// adjInto writes every user row in parallel — one entry per item group, its
// normVal terms summed left to right — then mirrors the user rows into the
// item rows by a counting sort over users ascending, so each item row lists
// its users ascending.
func (inc *Incremental) adjInto(dst *tensor.CSR, workers int, self bool) *tensor.CSR {
	if dst == nil {
		dst = &tensor.CSR{}
	}
	workers = par.Workers(workers)
	U, V := inc.numUsers, inc.numItems
	diag := 0
	if self {
		diag = 1
	}
	dst.Reshape(U+V, U+V)
	rp := dst.RowPtr
	rp[0] = 0
	par.ForChunks(U, incChunk, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			es, n := inc.edges[u], 0
			for s := range es {
				if s == 0 || es[s-1].item != es[s].item {
					n++
				}
			}
			rp[u+1] = n + diag
		}
	})
	for u := 0; u < U; u++ {
		rp[u+1] += rp[u]
	}
	for v := 0; v < V; v++ {
		rp[U+v+1] = rp[U+v] + int(inc.itemGroups[v]) + diag
	}
	dst.GrowNNZ()
	col, val := dst.ColIdx, dst.Val

	par.ForChunks(U, incChunk, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			out := rp[u]
			if self {
				col[out], val[out] = u, 1
				out++
			}
			es, du := inc.edges[u], inc.userDeg[u]
			for s := 0; s < len(es); out++ {
				v := es[s].item
				dv := inc.itemDeg[v]
				x := 0.0
				for ; s < len(es) && es[s].item == v; s++ {
					x += normVal(es[s].w, du, dv)
				}
				col[out], val[out] = U+int(v), x
			}
		}
	})

	inc.cursor = append(inc.cursor[:0], rp[U:U+V]...)
	for u := 0; u < U; u++ {
		for j := rp[u] + diag; j < rp[u+1]; j++ {
			v := col[j] - U
			out := inc.cursor[v]
			inc.cursor[v]++
			col[out], val[out] = u, val[j]
		}
	}
	if self {
		for v := 0; v < V; v++ {
			col[rp[U+v+1]-1], val[rp[U+v+1]-1] = U+v, 1
		}
	}
	return dst
}

// sliceHeaderBytes is the size of a Go slice header, counted once per
// user's kept edge set.
const sliceHeaderBytes = 24

// MemoryBytes estimates the engine's resident footprint: the degree and
// item-group vectors, each user's edge set (a slice header plus 16 B per
// edge at its capacity), and the staging and assembly scratch at their
// current capacity.
func (inc *Incremental) MemoryBytes() int64 {
	b := int64(len(inc.userDeg)+len(inc.itemDeg))*8 + int64(len(inc.itemGroups))*4
	b += int64(len(inc.edges)) * sliceHeaderBytes
	for _, es := range inc.edges {
		b += int64(cap(es)) * 16
	}
	b += int64(cap(inc.stagedUsers)+cap(inc.stagedOff))*4 + int64(cap(inc.staged))*16
	b += int64(cap(inc.cursor)) * 8
	return b
}
