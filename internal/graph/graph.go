// Package graph builds the propagation operators of the bipartite user–item
// graphs the graph recommenders (NGCF, LightGCN) run on. Incremental is the
// one way a model receives them: a caller stages each user's edges, commits,
// and hands the engine to models.GraphRecommender.SetGraph — the federated
// server keeps one engine, restaging each round's uploaders and rebuilding
// the adjacency from every user's latest edges, a graph client and the
// centralized trainer stage a fresh one. Bipartite, with its serial
// NormalizedAdj and NormalizedAdjSelf, is the full-build reference the
// tests pin the engine to.
//
// Nodes are indexed user-first: node u for users 0..U-1, node U+v for items
// 0..V-1. The propagation operator is the symmetric normalized adjacency
// Â = D^{-1/2} (A) D^{-1/2}, optionally with self loops (Â + I) for NGCF's
// self-retaining message.
package graph

import (
	"math"

	"ptffedrec/internal/tensor"
)

// Edge is one user–item interaction with an optional confidence weight.
// PTF-FedRec's server builds its graph from uploaded prediction scores, so
// weights are in (0, 1]; raw interaction graphs use weight 1.
type Edge struct {
	User, Item int
	Weight     float64
}

// Bipartite is a user–item interaction graph.
type Bipartite struct {
	NumUsers, NumItems int
	edges              []Edge
	userDeg, itemDeg   []float64
}

// NewBipartite returns an empty graph over the given universe sizes.
func NewBipartite(numUsers, numItems int) *Bipartite {
	return &Bipartite{
		NumUsers: numUsers,
		NumItems: numItems,
		userDeg:  make([]float64, numUsers),
		itemDeg:  make([]float64, numItems),
	}
}

// AddEdge records an interaction. Duplicate edges accumulate weight.
func (g *Bipartite) AddEdge(user, item int, weight float64) {
	g.edges = append(g.edges, Edge{User: user, Item: item, Weight: weight})
	g.userDeg[user] += weight
	g.itemDeg[item] += weight
}

// NumEdges returns the number of recorded interactions.
func (g *Bipartite) NumEdges() int { return len(g.edges) }

// NumNodes returns the total node count (users + items).
func (g *Bipartite) NumNodes() int { return g.NumUsers + g.NumItems }

// UserDegree returns the (weighted) degree of user u.
func (g *Bipartite) UserDegree(u int) float64 { return g.userDeg[u] }

// ItemDegree returns the (weighted) degree of item v.
func (g *Bipartite) ItemDegree(v int) float64 { return g.itemDeg[v] }

// normVal is the symmetric normalization of a single edge weight:
// w / sqrt(du·dv). It is the one place this expression lives — the reference
// triplet build and Incremental both call it, so their outputs
// are bitwise-equal by construction, not by accident of compilation.
func normVal(w, du, dv float64) float64 {
	return w / math.Sqrt(du*dv)
}

// normalizedTriplets returns the symmetric (edge, mirror) triplet pairs of
// every edge with positive endpoint degrees, in edge order, with room for
// extra more.
func (g *Bipartite) normalizedTriplets(extra int) []tensor.Triplet {
	trips := make([]tensor.Triplet, 0, 2*len(g.edges)+extra)
	for _, e := range g.edges {
		du := g.userDeg[e.User]
		dv := g.itemDeg[e.Item]
		if du <= 0 || dv <= 0 {
			continue
		}
		w := normVal(e.Weight, du, dv)
		un := e.User
		vn := g.NumUsers + e.Item
		trips = append(trips, tensor.Triplet{Row: un, Col: vn, Val: w}, tensor.Triplet{Row: vn, Col: un, Val: w})
	}
	return trips
}

// NormalizedAdj returns the symmetric normalized adjacency
// Â = D^{-1/2} A D^{-1/2} over the (users+items) node set. Isolated nodes
// produce empty rows, which simply propagate nothing.
func (g *Bipartite) NormalizedAdj() *tensor.CSR {
	n := g.NumNodes()
	return tensor.NewCSR(n, n, g.normalizedTriplets(0))
}

// NormalizedAdjSelf returns Â + I, the self-loop-augmented propagation
// operator NGCF uses for its self-retaining term.
func (g *Bipartite) NormalizedAdjSelf() *tensor.CSR {
	n := g.NumNodes()
	trips := g.normalizedTriplets(n)
	for i := 0; i < n; i++ {
		trips = append(trips, tensor.Triplet{Row: i, Col: i, Val: 1})
	}
	return tensor.NewCSR(n, n, trips)
}

// UserNode returns the node index for user u.
func (g *Bipartite) UserNode(u int) int { return u }

// ItemNode returns the node index for item v.
func (g *Bipartite) ItemNode(v int) int { return g.NumUsers + v }
