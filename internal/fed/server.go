package fed

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/models"
	"ptffedrec/internal/par"
	"ptffedrec/internal/rng"
)

// Server owns the provider's hidden model. Nothing about it — architecture,
// parameters, optimizer — ever leaves this struct; the only outputs are
// prediction scores.
type Server struct {
	model models.Recommender
	cfg   *Config
	s     *rng.Stream

	numUsers, numItems int

	// itemFreq counts how many uploaded triples touched each item — the
	// embedding-update-frequency confidence measure of Eq. 9.
	itemFreq []int

	// ident is the identity item list 0..numItems-1 — the item universe the
	// hard half's BlockTopK slices score windows from.
	ident []int

	// Graph-staging scratch, reused across rounds so a steady-state graph
	// rebuild does no per-user allocation: the non-empty uploads' indexes in
	// user order and one uploader's soft-positive edges.
	stageIdx   []int32
	stageEdges []graph.Edge

	// inc holds every user's latest edges for a graph server model (nil
	// otherwise); every rebuild stages the round's uploaders into it.
	inc *graph.Incremental

	// train's flattened sample set, reused across rounds.
	trainSamples []models.Sample
}

// serverModelConfig is the hidden model's configuration. Its SGD shards every
// batch over the gradient workspace engine on the run's one pool size, so
// `ptfserve -workers 1` trains the server model serially too.
func serverModelConfig(numUsers, numItems int, cfg *Config) models.Config {
	return models.Config{
		NumUsers:     numUsers,
		NumItems:     numItems,
		Dim:          cfg.Dim,
		LR:           cfg.LR,
		Layers:       cfg.Layers,
		TrainWorkers: par.Workers(cfg.Workers),
		Seed:         cfg.Seed ^ 0xabcdef12345678,
	}
}

// newServer builds the hidden server model.
func newServer(numUsers, numItems int, cfg *Config, parent *rng.Stream) (*Server, error) {
	m, err := models.New(cfg.ServerModel, serverModelConfig(numUsers, numItems, cfg))
	if err != nil {
		return nil, fmt.Errorf("fed: server: %w", err)
	}
	ident := make([]int, numItems)
	for v := range ident {
		ident[v] = v
	}
	return &Server{
		model:    m,
		cfg:      cfg,
		s:        parent.Derive("server"),
		numUsers: numUsers,
		numItems: numItems,
		itemFreq: make([]int, numItems),
		ident:    ident,
	}, nil
}

// Model returns the server's recommender (the paper's Ms).
func (sv *Server) Model() models.Recommender { return sv.model }

// Snapshot persists the hidden model's parameters and optimizer state — the
// provider's actual asset. The snapshot never travels through the protocol;
// it exists so the provider can checkpoint and serve the model out-of-band.
// Because the Adam moments travel with the weights, a restored server resumes
// a long run bit-for-bit where the checkpoint left off. Only a LightGCN
// server checkpoints (models.Snapshotter); for any other kind Snapshot
// returns an error naming it.
func (sv *Server) Snapshot(w io.Writer) error {
	s, err := sv.snapshotter()
	if err != nil {
		return err
	}
	return s.Snapshot(w)
}

// Restore loads a snapshot previously written by Snapshot into the hidden
// model (same Config required). Like Snapshot, it returns an error naming
// the kind of a model that does not checkpoint.
func (sv *Server) Restore(r io.Reader) error {
	s, err := sv.snapshotter()
	if err != nil {
		return err
	}
	return s.Restore(r)
}

// snapshotter returns the hidden model as a Snapshotter, or an error naming
// its kind when it does not checkpoint.
func (sv *Server) snapshotter() (models.Snapshotter, error) {
	s, ok := sv.model.(models.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("fed: a %s server model does not checkpoint", sv.model.Name())
	}
	return s, nil
}

// ItemFrequency returns the confidence counter for item v.
func (sv *Server) ItemFrequency(v int) int { return sv.itemFreq[v] }

// UploadStoreBytes reports the per-user upload state the server retains
// between rounds: none — Eq. 9's exclusion set is built from the round's own
// upload and the graph's delta is the round's uploads. Its one reader is the
// frozen benchmark's fed.upload_store_mb probe (bench/traced.go); the two
// leave together.
func (sv *Server) UploadStoreBytes() int64 { return 0 }

// EligCacheBytes reports the eligibility state the server retains between
// dispersal calls: none — eligibility is the complement of the upload's
// sorted item list, rebuilt per target into worker scratch. Its one reader is the frozen benchmark's
// fed.elig_cache_mb probe (bench/traced.go); the two leave together.
func (sv *Server) EligCacheBytes() int64 { return 0 }

// GraphEngineBytes reports the resident bytes of the graph engine: each
// user's kept edges, the degree vectors and the staging and assembly scratch
// (0 when the server model is not a graph model).
func (sv *Server) GraphEngineBytes() int64 {
	if sv.inc == nil {
		return 0
	}
	return sv.inc.MemoryBytes()
}

// absorb ingests one round of uploads into the confidence counters: one
// serial pass. Steady-state rounds allocate nothing here.
func (sv *Server) absorb(uploads [][]comm.Prediction) {
	for _, up := range uploads {
		for _, p := range up {
			sv.itemFreq[p.Item]++
		}
	}
}

// stageUploads stages the round's non-empty uploads into the graph engine in
// ascending user order, each uploader's soft-positive edges (every triple
// scored at or above GraphThreshold, weighted by its score) in upload order;
// an uploader whose upload selects no edge clears their row. Steady-state
// calls allocate nothing.
func (sv *Server) stageUploads(uploads [][]comm.Prediction) {
	idx := sv.stageIdx[:0]
	for i, up := range uploads {
		if len(up) > 0 {
			idx = append(idx, int32(i))
		}
	}
	sv.stageIdx = idx
	// Uploads carry one user each and users are distinct, so the first
	// prediction's id is a total order.
	slices.SortFunc(idx, func(a, b int32) int { return cmp.Compare(uploads[a][0].User, uploads[b][0].User) })
	sv.inc.Begin()
	for _, i := range idx {
		u := uploads[i][0].User
		edges := sv.stageEdges[:0]
		for _, p := range uploads[i] {
			if p.Score >= sv.cfg.GraphThreshold {
				edges = append(edges, graph.Edge{User: u, Item: p.Item, Weight: p.Score})
			}
		}
		sv.stageEdges = edges
		sv.inc.StageUser(u, edges)
	}
}

// rebuildGraph brings the server's soft-positive graph up to date with the
// round's uploads: an uploaded triple scored at or above GraphThreshold is a
// soft-positive edge weighted by its score. Only graph server models pay this
// cost.
//
// The graph's delta is exactly the round's uploaders: a user's edges derive
// from their latest upload alone, and the round's uploaders are the users
// whose latest upload just changed. So stageUploads stages each uploader's
// row, and the engine rebuilds every degree and normalization value from each
// user's latest edges, bitwise-identical to a fresh engine that stages every
// user's latest upload by the engine's construction. The commit costs
// O(users + items + edges), the order the model's SetGraph pays to assemble
// the adjacency anyway. CloseRound's contract (distinct users, each
// prediction naming its outcome's user and an in-range item) is what makes
// the staging order strictly ascending, and Validate's GraphThreshold > 0 is
// what keeps every weight positive.
func (sv *Server) rebuildGraph(uploads [][]comm.Prediction, workers int) {
	gm, ok := sv.model.(models.GraphRecommender)
	if !ok {
		return
	}
	if sv.inc == nil {
		sv.inc = graph.NewIncremental(sv.numUsers, sv.numItems)
	}
	sv.stageUploads(uploads)
	sv.inc.Commit(workers)
	gm.SetGraph(sv.inc)
}

// train runs the server-side optimisation of Eq. 5 on the round's uploads,
// flattened in slot order into the training set. The SGD loop visits batches
// sequentially; inside each TrainBatch the model's gradient workspace engine
// shards the forward/backward over its TrainWorkers with a chunk-ordered
// merge, which is what keeps seeded runs exactly reproducible at any worker
// count.
func (sv *Server) train(uploads [][]comm.Prediction) float64 {
	samples := sv.trainSamples[:0]
	for _, up := range uploads {
		for _, p := range up {
			samples = append(samples, models.Sample{User: p.User, Item: p.Item, Label: p.Score})
		}
	}
	sv.trainSamples = samples
	return models.Fit(sv.model, sv.s, samples, sv.cfg.ServerEpochs, sv.cfg.ServerBatch)
}

// dispersalPlan is the round-scoped shared state of Eq. 9's dispersal: the
// global confidence ranking depends only on the absorbed frequency counters,
// so it is computed once per round instead of re-sorted per client.
type dispersalPlan struct {
	// confRank lists every item by (update frequency desc, id asc). Filtering
	// it by a client's eligibility preserves relative order, so a per-client
	// walk reproduces exactly what a per-client stable sort produced.
	confRank []int
}

// buildDispersalPlan snapshots the round's confidence ranking. Call after
// absorb; the itemFreq counters must not change while the plan is in use.
func (sv *Server) buildDispersalPlan() *dispersalPlan {
	plan := &dispersalPlan{}
	if sv.cfg.Alpha <= 0 {
		return plan
	}
	nConf, _, confRandom, _ := disperseArms(sv.cfg)
	if nConf > 0 && !confRandom {
		rank := make([]int, sv.numItems)
		for i := range rank {
			rank[i] = i
		}
		sort.SliceStable(rank, func(a, b int) bool {
			return sv.itemFreq[rank[a]] > sv.itemFreq[rank[b]]
		})
		plan.confRank = rank
	}
	return plan
}

// disperseTarget identifies one dispersal recipient from what the server
// received: the user id and the exclusion list Eq. 9's "vⱼ ∉ V̂ᵗᵢ" constraint
// walks — the upload's items, ascending (empty for an empty upload). It
// deliberately carries no *Client — the networked coordinator disperses to
// users it only knows through the wire, so everything here must derive from
// what the server received.
type disperseTarget struct {
	id   int
	excl []int
}

// disperseTargetInto builds user id's dispersal target from up, the upload
// V̂ᵗᵢ the user sent in the dispersal's own round, its exclusion list filled
// into buf's storage. CloseRound's contract names each item at most once, so
// the sorted list is strictly ascending, as every walk over it — the eligible
// count, the complement, BlockTopK's cursor — needs. The exclusion therefore
// reflects what the server actually received — under a truncated upload, the
// truncated item set — which is the only exclusion a transport-separated
// server can honour.
func (sv *Server) disperseTargetInto(id int, up []comm.Prediction, buf []int) disperseTarget {
	buf = buf[:0]
	for _, p := range up {
		buf = append(buf, p.Item)
	}
	slices.Sort(buf)
	return disperseTarget{id: id, excl: buf}
}
