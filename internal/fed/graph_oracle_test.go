package fed

// The server graph's reference: the soft-positive rule written out per user's
// latest upload, independently of the live staging pass (stageUploads), then
// staged into a fresh graph.Incremental — the path graph clients and the
// centralized trainer take. The maintained adjacency must equal the fresh engine's bit for bit;
// the graph package pins a fresh engine to its full Bipartite build.

import (
	"ptffedrec/internal/comm"
	"ptffedrec/internal/graph"
)

// oracleEdges returns user u's soft-positive edges from preds: every triple
// scored >= GraphThreshold, in upload order.
func oracleEdges(cfg *Config, u int, preds []comm.Prediction) []graph.Edge {
	var edges []graph.Edge
	for _, p := range preds {
		if p.Score >= cfg.GraphThreshold {
			edges = append(edges, graph.Edge{User: u, Item: p.Item, Weight: p.Score})
		}
	}
	return edges
}

// oracleGraph stages every user's latest upload in record into a fresh
// engine — users ascending, each user's edges in rule order — commits it, and
// returns it with its edge count.
func oracleGraph(sv *Server, record *mapUploadStore) (*graph.Incremental, int) {
	inc := graph.NewIncremental(sv.numUsers, sv.numItems)
	edges := 0
	for _, u := range record.Users(nil) {
		es := oracleEdges(sv.cfg, u, record.View(u))
		inc.StageUser(u, es)
		edges += len(es)
	}
	inc.Commit(1)
	return inc, edges
}
