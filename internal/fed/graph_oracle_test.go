package fed

// The server graph's reference: the soft-positive rule written out per stored
// view, serially and independently of the live selection (selectEdges /
// countEdgesIn / fillEdgesIn), then built from scratch with
// graph.NewBipartite — the path clients and the centralized trainer take.
// The maintained adjacency must equal its NormalizedAdjPar bit for bit.

import (
	"sort"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/graph"
)

// oracleEdges returns user u's soft-positive edges from preds: every triple
// scored >= GraphThreshold in upload order, or, when GraphTopFrac is set, the
// top fraction by score (stable, so ties keep upload order) with weights
// floored at 0.05.
func oracleEdges(cfg *Config, u int, preds []comm.Prediction) []graph.Edge {
	var edges []graph.Edge
	if cfg.GraphTopFrac > 0 {
		n := min(max(int(cfg.GraphTopFrac*float64(len(preds))+0.5), 1), len(preds))
		ranked := append([]comm.Prediction(nil), preds...)
		sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].Score > ranked[b].Score })
		for _, p := range ranked[:n] {
			edges = append(edges, graph.Edge{User: u, Item: p.Item, Weight: max(p.Score, 0.05)})
		}
		return edges
	}
	for _, p := range preds {
		if p.Score >= cfg.GraphThreshold {
			edges = append(edges, graph.Edge{User: u, Item: p.Item, Weight: p.Score})
		}
	}
	return edges
}

// oracleGraph builds the server's graph from every stored upload: users
// ascending, each user's edges in rule order.
func oracleGraph(sv *Server) *graph.Bipartite {
	g := graph.NewBipartite(sv.numUsers, sv.numItems)
	for _, u := range sv.store.Users(nil) {
		for _, e := range oracleEdges(sv.cfg, u, sv.store.View(u)) {
			g.AddEdge(e.User, e.Item, e.Weight)
		}
	}
	return g
}
