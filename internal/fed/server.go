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
	// scorer is model's multi-user scoring contract, which the dispersal
	// engine scores every batch through; asserted once at construction.
	scorer models.MultiBlockScorer
	cfg    *Config
	s      *rng.Stream

	numUsers, numItems int

	// itemFreq counts how many uploaded triples touched each item — the
	// embedding-update-frequency confidence measure of Eq. 9.
	itemFreq []int

	// ident is the identity item list 0..numItems-1 — the item universe the
	// hard half's BlockTopK slices score windows from.
	ident []int

	// Edge-selection scratch, reused across rounds so a steady-state graph
	// rebuild does no per-user allocation: the non-empty uploads' indexes in
	// user order, the uploaders, the per-uploader edge offsets and the edge
	// slab the selection fills.
	edgeIdx   []int32
	edgeUsers []int
	edgeOff   []int
	edgeSlab  []graph.Edge

	// inc is the maintained adjacency of a graph server model (nil
	// otherwise); every rebuild stages the round's uploaders into it.
	inc *graph.Incremental

	// train's flattened sample set and its per-upload offsets, reused across
	// rounds (every entry is overwritten before it is read).
	trainSamples []models.Sample
	trainOff     []int
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
	scorer, ok := m.(models.MultiBlockScorer)
	if !ok {
		return nil, fmt.Errorf("fed: server model %q cannot score user batches (models.MultiBlockScorer)", cfg.ServerModel)
	}
	ident := make([]int, numItems)
	for v := range ident {
		ident[v] = v
	}
	return &Server{
		model:    m,
		scorer:   scorer,
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
// a long run bit-for-bit where the checkpoint left off.
func (sv *Server) Snapshot(w io.Writer) error {
	return sv.model.(models.Snapshotter).Snapshot(w)
}

// Restore loads a snapshot previously written by Snapshot into the hidden
// model (same Config required).
func (sv *Server) Restore(r io.Reader) error {
	return sv.model.(models.Snapshotter).Restore(r)
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

// GraphEngineBytes reports the resident bytes of the incremental graph
// engine's maintained rows, postings, and scratch (0 when the server model
// is not a graph model).
func (sv *Server) GraphEngineBytes() int64 {
	if sv.inc == nil {
		return 0
	}
	return sv.inc.MemoryBytes()
}

// absorb ingests one round of uploads into the confidence counters: one
// serial pass, out-of-range items skipped. Steady-state rounds allocate
// nothing here.
func (sv *Server) absorb(uploads [][]comm.Prediction) {
	for _, up := range uploads {
		for _, p := range up {
			if p.Item >= 0 && p.Item < sv.numItems {
				sv.itemFreq[p.Item]++
			}
		}
	}
}

// selectEdges runs the soft-positive edge selection over the round's
// non-empty uploads in ascending user order: users lists the uploaders, and
// user users[i]'s edges are slab[off[i]:off[i+1]]. A parallel count pass
// fixes each uploader's edge range by prefix sum and a parallel fill pass
// writes each range, so the slab — and with it the order edge weights
// accumulate in — is the serial construction's for any worker count.
// Steady-state calls at workers<=1 allocate nothing.
func (sv *Server) selectEdges(uploads [][]comm.Prediction, workers int) (users, off []int, slab []graph.Edge) {
	idx := sv.edgeIdx[:0]
	for i, up := range uploads {
		if len(up) > 0 {
			idx = append(idx, int32(i))
		}
	}
	sv.edgeIdx = idx
	// Uploads carry one user each and users are distinct, so the first
	// prediction's id is a total order.
	slices.SortFunc(idx, func(a, b int32) int { return cmp.Compare(uploads[a][0].User, uploads[b][0].User) })
	users = slices.Grow(sv.edgeUsers[:0], len(idx))[:len(idx)]
	sv.edgeUsers = users
	off = slices.Grow(sv.edgeOff[:0], len(idx)+1)[:len(idx)+1]
	sv.edgeOff = off

	// The parallel branches capture shadow copies: closing over the named
	// results directly would box them on the heap every call, breaking the
	// serial path's zero-allocation pin.
	workers = par.Workers(workers)
	off[0] = 0
	if workers <= 1 {
		for i, ui := range idx {
			up := uploads[ui]
			users[i] = up[0].User
			off[i+1] = sv.countEdgesIn(up)
		}
	} else {
		cIdx, cUsers, cOff := idx, users, off
		par.For(len(cIdx), workers, func(i int) {
			up := uploads[cIdx[i]]
			cUsers[i] = up[0].User
			cOff[i+1] = sv.countEdgesIn(up)
		})
	}
	for i := 1; i <= len(idx); i++ {
		off[i] += off[i-1]
	}

	slab = slices.Grow(sv.edgeSlab[:0], off[len(idx)])[:off[len(idx)]]
	sv.edgeSlab = slab

	if workers <= 1 {
		for i, ui := range idx {
			sv.fillEdgesIn(users[i], uploads[ui], slab[off[i]:off[i+1]])
		}
	} else {
		cIdx, cUsers, cOff, cSlab := idx, users, off, slab
		chunk := (len(cIdx) + workers - 1) / workers
		par.ForChunks(len(cIdx), chunk, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sv.fillEdgesIn(cUsers[i], uploads[cIdx[i]], cSlab[cOff[i]:cOff[i+1]])
			}
		})
	}
	return users, off, slab
}

// rebuildGraph brings the server's soft-positive graph up to date with the
// round's uploads: an uploaded triple scored at or above GraphThreshold is a
// soft-positive edge weighted by its score. Only graph server models pay this
// cost.
//
// The graph's delta is exactly the round's uploaders: a user's edges derive
// from their latest upload alone, and the round's uploaders are the users
// whose latest upload just changed. So selectEdges runs over the uploads,
// each uploader's row is staged — an uploader whose new upload selects no
// edges clears their row — and the maintained adjacency engine patches
// exactly the affected rows, degrees and normalization values,
// bitwise-identical to a fresh engine that stages every user's latest upload
// by the engine's construction. CloseRound's contract (distinct users, each
// prediction naming its outcome's user and an in-range item) is what makes
// the staging order strictly ascending, and Validate's GraphThreshold > 0 is
// what keeps every weight positive.
func (sv *Server) rebuildGraph(uploads [][]comm.Prediction, workers int) {
	gm, ok := sv.model.(models.GraphRecommender)
	if !ok {
		return
	}
	users, off, slab := sv.selectEdges(uploads, workers)
	if sv.inc == nil {
		sv.inc = graph.NewIncremental(sv.numUsers, sv.numItems)
	}
	sv.inc.Begin()
	for i, u := range users {
		sv.inc.StageUser(u, slab[off[i]:off[i+1]])
	}
	sv.inc.Commit(workers)
	gm.SetGraph(sv.inc)
}

// countEdgesIn returns how many edges the soft-positive threshold selects
// from one upload — the sizing pass of selectEdges.
func (sv *Server) countEdgesIn(preds []comm.Prediction) int {
	n := 0
	for _, p := range preds {
		if p.Score >= sv.cfg.GraphThreshold {
			n++
		}
	}
	return n
}

// fillEdgesIn writes user u's selected edges from preds into dst (sized by
// countEdgesIn), in upload order. Calls for distinct users only read server
// state, so they run concurrently.
func (sv *Server) fillEdgesIn(u int, preds []comm.Prediction, dst []graph.Edge) {
	k := 0
	for _, p := range preds {
		if p.Score >= sv.cfg.GraphThreshold {
			dst[k] = graph.Edge{User: u, Item: p.Item, Weight: p.Score}
			k++
		}
	}
}

// train runs the server-side optimisation of Eq. 5 on the round's uploads.
// Flattening the uploads into the training set is sharded over workers into
// precomputed offset ranges, so the sample order — and with it the shuffle
// and every optimizer step — is identical to the serial construction. The
// SGD loop itself visits batches sequentially; inside each TrainBatch the
// model's gradient workspace engine shards the forward/backward over its
// TrainWorkers with a chunk-ordered merge, which is what keeps seeded runs
// exactly reproducible at any worker count.
func (sv *Server) train(uploads [][]comm.Prediction, workers int) float64 {
	offsets := append(sv.trainOff[:0], 0)
	for _, up := range uploads {
		offsets = append(offsets, offsets[len(offsets)-1]+len(up))
	}
	sv.trainOff = offsets
	total := offsets[len(uploads)]
	samples := slices.Grow(sv.trainSamples[:0], total)[:total]
	sv.trainSamples = samples
	par.For(len(uploads), par.Workers(workers), func(i int) {
		out := samples[offsets[i]:offsets[i+1]]
		for j, p := range uploads[i] {
			out[j] = models.Sample{User: p.User, Item: p.Item, Label: p.Score}
		}
	})
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
// walks — the upload's distinct in-range items, ascending (empty for an empty
// upload). It deliberately carries no *Client — the networked coordinator
// disperses to users it only knows through the wire, so everything here must
// derive from what the server received.
type disperseTarget struct {
	id   int
	excl []int
}

// disperseTargetInto builds user id's dispersal target from up, the upload
// V̂ᵗᵢ the user sent in the dispersal's own round, its exclusion list filled
// into buf's storage. The list is sorted and de-duplicated: an upload may
// name an item twice, and every walk over the list — the eligible count, the
// complement, BlockTopK's cursor — needs it strictly ascending. The exclusion
// therefore reflects what the server actually received — under a truncated
// upload, the truncated item set — which is the only exclusion a
// transport-separated server can honour.
func (sv *Server) disperseTargetInto(id int, up []comm.Prediction, buf []int) disperseTarget {
	buf = buf[:0]
	for _, p := range up {
		if p.Item >= 0 && p.Item < sv.numItems {
			buf = append(buf, p.Item)
		}
	}
	slices.Sort(buf)
	return disperseTarget{id: id, excl: slices.Compact(buf)}
}
