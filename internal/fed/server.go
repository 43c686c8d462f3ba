package fed

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"ptffedrec/internal/bitset"
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

	// store keeps each user's most recent D̂ᵗᵢ; the union is the server's
	// entire view of the interaction structure, from which it rebuilds its
	// graph every round.
	store *flatUploadStore

	// ident is the identity item list 0..numItems-1 — the shared candidate
	// block the batched dispersal engine slices score chunks from.
	ident []int

	// hist holds per-worker histogram scratch for absorb's sharded counter
	// pass, so steady-state rounds allocate nothing there.
	hist [][]int

	// Graph-build scratch, reused across rounds so the steady-state edge
	// collection does no per-user allocation: the stored-user list, the
	// per-user edge offsets, the edge slab the selection pass fills, and the
	// serial path's rank-order sorter.
	graphUsers []int
	edgeOff    []int
	edgeSlab   []graph.Edge
	edgeSort   edgeSorter

	// Incremental graph engine state (graph server models only): the
	// maintained adjacency, the reused dirty-user buffer, and the permanent
	// fallback flag. The engine requires strictly positive edge weights (the
	// full build skips zero-degree endpoints, which would make row membership
	// data-dependent); a non-positive selected weight — only reachable with
	// GraphThreshold <= 0 — trips incBroken and every later round takes the
	// full rebuild, which is bitwise-identical anyway.
	inc       *graph.Incremental
	incDirty  []int
	incBroken bool

	// train's flattened sample set and its per-upload offsets, reused across
	// rounds (every entry is overwritten before it is read).
	trainSamples []models.Sample
	trainOff     []int

	// Fused edge-selection scratch: the incremental graph path selects the
	// round's edges directly from the upload slices CloseRound still holds —
	// instead of re-reading every dirty user's view from the store absorb just
	// wrote. fusedUsers/fusedOff/fusedSlab mirror collectEdgesFor's
	// (users, off, slab) shape.
	fusedUsers []int
	fusedOff   []int
	fusedSlab  []graph.Edge
	fusedIdx   []int32
	fusedSort  uploadOrderSorter
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
		store:    newFlatUploadStore(numUsers),
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

// UploadStoreBytes reports the resident bytes of the per-user upload store —
// the scalability experiment's memory-accounting hook.
func (sv *Server) UploadStoreBytes() int64 { return sv.store.MemoryBytes() }

// EligCacheBytes reports the eligibility state the server retains between
// dispersal calls: none — eligibility is the upload bitset, rebuilt per
// target into worker scratch. Its one reader is the frozen benchmark's
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

// countUploadItems accumulates the uploads' item frequencies into counts.
// Out-of-range items are skipped; the bound is len(counts) — the item
// universe — so the single-worker and sharded absorb paths share one rule by
// construction.
func countUploadItems(counts []int, uploads [][]comm.Prediction) {
	for _, up := range uploads {
		for _, p := range up {
			if p.Item >= 0 && p.Item < len(counts) {
				counts[p.Item]++
			}
		}
	}
}

// absorb ingests one round of uploads: updates confidence counters and the
// per-user latest views. The counter pass shards the uploads over workers,
// each accumulating into a private (reused) histogram; the shard histograms
// merge sequentially, so counts are exact integers regardless of worker
// count. The view updates go to the upload store, sharded over fixed user
// partitions. Steady-state rounds allocate nothing here.
func (sv *Server) absorb(uploads [][]comm.Prediction, workers int) {
	workers = par.Workers(workers)
	if workers > len(uploads) {
		workers = len(uploads)
	}
	if workers <= 1 {
		countUploadItems(sv.itemFreq, uploads)
	} else {
		for len(sv.hist) < workers {
			sv.hist = append(sv.hist, nil)
		}
		partial := sv.hist[:workers]
		chunk := (len(uploads) + workers - 1) / workers
		par.For(workers, workers, func(w int) {
			counts := partial[w]
			if counts == nil {
				counts = make([]int, sv.numItems)
				partial[w] = counts
			} else {
				for i := range counts {
					counts[i] = 0
				}
			}
			lo, hi := w*chunk, (w+1)*chunk
			if hi > len(uploads) {
				hi = len(uploads)
			}
			if lo < hi {
				countUploadItems(counts, uploads[lo:hi])
			}
		})
		for _, counts := range partial {
			for v, c := range counts {
				sv.itemFreq[v] += c
			}
		}
	}
	sv.store.SetBatch(uploads, workers)
}

// fuseEdgeSelection runs the incremental graph path's edge selection on the
// round's upload slices, saving rebuildGraph a full re-read of every dirty
// user's stored view. The selection is the same two-pass count/fill over the
// same soft-positive rules (countEdgesIn / fillEdgesIn are shared with the
// store-reading path), over the non-empty uploads in ascending user order —
// exactly the store's dirty order when absorb ingested these uploads and
// nothing else since the last rebuild. Steady-state calls at workers<=1
// allocate nothing.
func (sv *Server) fuseEdgeSelection(uploads [][]comm.Prediction, workers int) ([]int, []int, []graph.Edge) {
	idx := sv.fusedIdx[:0]
	for i, up := range uploads {
		if len(up) > 0 {
			idx = append(idx, int32(i))
		}
	}
	sv.fusedIdx = idx
	sv.fusedSort.idx, sv.fusedSort.uploads = idx, uploads
	sort.Sort(&sv.fusedSort)
	sv.fusedSort.uploads = nil

	users := sv.fusedUsers
	if cap(users) < len(idx) {
		users = make([]int, len(idx))
	}
	users = users[:len(idx):cap(users)]
	sv.fusedUsers = users
	off := sv.fusedOff
	if cap(off) < len(idx)+1 {
		off = make([]int, len(idx)+1)
	}
	off = off[: len(idx)+1 : cap(off)]
	sv.fusedOff = off

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

	slab := sv.fusedSlab
	if cap(slab) < off[len(idx)] {
		slab = make([]graph.Edge, off[len(idx)])
	}
	slab = slab[:off[len(idx)]]
	sv.fusedSlab = slab

	if workers <= 1 {
		for i, ui := range idx {
			sv.fillEdgesIn(users[i], uploads[ui], slab[off[i]:off[i+1]], &sv.edgeSort)
		}
	} else {
		cIdx, cUsers, cOff, cSlab := idx, users, off, slab
		chunk := (len(cIdx) + workers - 1) / workers
		par.ForChunks(len(cIdx), chunk, workers, func(lo, hi int) {
			var sorter edgeSorter
			for i := lo; i < hi; i++ {
				sv.fillEdgesIn(cUsers[i], uploads[cIdx[i]], cSlab[cOff[i]:cOff[i+1]], &sorter)
			}
		})
	}
	return users, off, slab
}

// uploadOrderSorter orders upload indices by user id ascending — the
// allocation-free sorter the fused selection uses to match the store's dirty
// order. Uploads carry one user each, so the first prediction's id is the key.
type uploadOrderSorter struct {
	idx     []int32
	uploads [][]comm.Prediction
}

func (s *uploadOrderSorter) Len() int { return len(s.idx) }
func (s *uploadOrderSorter) Less(a, b int) bool {
	return s.uploads[s.idx[a]][0].User < s.uploads[s.idx[b]][0].User
}
func (s *uploadOrderSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// rebuildGraph reconstructs the server's bipartite graph from every user's
// latest upload. Soft-positive edges come either from an absolute score
// threshold or, when GraphTopFrac is set, from each user's top-scored
// fraction (robust to per-client calibration drift). Only graph server
// models pay this cost; SetGraph itself shards the adjacency/CSR build over
// the model's TrainWorkers.
//
// The edge collection runs over the upload store's ascending user order —
// there are no map keys to sort — in two passes over a reused slab: a
// parallel count pass fixes each user's edge range by prefix sum, a parallel
// fill pass writes each user's edges into its own range, and the slab is
// replayed in user order. Edge insertion order — which decides the order
// degree weights accumulate in, and therefore the propagated floats —
// matches the serial construction exactly for any worker count.
//
// When the server model implements GraphDeltaRecommender the rebuild is
// incremental: only users whose stored upload changed since the last rebuild
// (the store's dirty set) re-run edge selection — over uploads, the slices
// absorb just ingested, when they are exactly that set — and the maintained
// adjacency engine patches exactly the affected rows, degrees, and
// normalization values — bitwise-identical to the full rebuild by the engine's
// construction. The full path below runs for graph models without the delta
// contract and, once a non-positive edge weight has tripped incBroken, for the
// rest of the run.
func (sv *Server) rebuildGraph(uploads [][]comm.Prediction, workers int) {
	gm, ok := sv.model.(models.GraphRecommender)
	if !ok {
		return
	}
	if dm, ok := sv.model.(models.GraphDeltaRecommender); ok && !sv.incBroken {
		if sv.rebuildGraphIncremental(dm, uploads, workers) {
			return
		}
		sv.incBroken = true
	}
	users, off, slab := sv.collectEdges(workers)
	// The full path consumes the round's dirty set too, so it never piles up.
	sv.store.ResetDirty()
	g := graph.NewBipartite(sv.numUsers, sv.numItems)
	for i := range users {
		for _, e := range slab[off[i]:off[i+1]] {
			g.AddEdge(e.User, e.Item, e.Weight)
		}
	}
	gm.SetGraph(g)
}

// rebuildGraphIncremental runs edge selection for the dirty users only and
// commits the delta to the maintained adjacency engine. It returns false —
// without touching the engine — if any selected weight is non-positive; the
// caller then falls back to the full rebuild permanently.
func (sv *Server) rebuildGraphIncremental(dm models.GraphDeltaRecommender, uploads [][]comm.Prediction, workers int) bool {
	dirty := sv.store.DirtyUsers(sv.incDirty[:0])
	sv.incDirty = dirty
	// Select from the upload slices; the store-reading two-pass path is the
	// fallback for a dirty set they do not describe (and the tests' reference).
	users, off, slab := sv.fuseEdgeSelection(uploads, workers)
	if !slices.Equal(dirty, users) {
		off, slab = sv.collectEdgesFor(dirty, workers)
	}
	for i := range slab {
		if !(slab[i].Weight > 0) {
			return false
		}
	}
	if sv.inc == nil {
		sv.inc = graph.NewIncremental(sv.numUsers, sv.numItems)
	}
	sv.inc.Begin()
	for i, u := range dirty {
		sv.inc.StageUser(u, slab[off[i]:off[i+1]])
	}
	sv.inc.Commit(workers)
	sv.store.ResetDirty()
	dm.SetGraphIncremental(sv.inc)
	return true
}

// collectEdges gathers every stored user's selected edges into the server's
// reused edge slab: users (ascending), per-user offsets into the slab, and
// the slab itself. Steady-state calls at workers<=1 allocate nothing; the
// parallel fill pass gives each chunk its own sorter scratch.
func (sv *Server) collectEdges(workers int) (users, off []int, slab []graph.Edge) {
	users = sv.store.Users(sv.graphUsers[:0])
	sv.graphUsers = users
	off, slab = sv.collectEdgesFor(users, workers)
	return users, off, slab
}

// collectEdgesFor runs the two-pass count/fill edge selection over the given
// users (ascending), reusing the server's offset and slab scratch.
func (sv *Server) collectEdgesFor(users []int, workers int) (off []int, slab []graph.Edge) {
	off = sv.edgeOff
	if cap(off) < len(users)+1 {
		off = make([]int, len(users)+1)
	}
	off = off[: len(users)+1 : cap(off)]
	sv.edgeOff = off
	workers = par.Workers(workers)

	// The parallel branches capture shadow copies: closing over the named
	// results directly would box them on the heap every call, breaking the
	// serial path's zero-allocation pin.
	off[0] = 0
	if workers <= 1 {
		for i := range users {
			off[i+1] = sv.countEdges(users[i])
		}
	} else {
		cUsers, cOff := users, off
		par.For(len(cUsers), workers, func(i int) {
			cOff[i+1] = sv.countEdges(cUsers[i])
		})
	}
	for i := 1; i <= len(users); i++ {
		off[i] += off[i-1]
	}

	slab = sv.edgeSlab
	if cap(slab) < off[len(users)] {
		slab = make([]graph.Edge, off[len(users)])
	}
	slab = slab[:off[len(users)]]
	sv.edgeSlab = slab

	if workers <= 1 {
		for i := range users {
			sv.fillEdges(users[i], slab[off[i]:off[i+1]], &sv.edgeSort)
		}
	} else {
		cUsers, cOff, cSlab := users, off, slab
		chunk := (len(cUsers) + workers - 1) / workers
		par.ForChunks(len(cUsers), chunk, workers, func(lo, hi int) {
			var sorter edgeSorter
			for i := lo; i < hi; i++ {
				sv.fillEdges(cUsers[i], cSlab[cOff[i]:cOff[i+1]], &sorter)
			}
		})
	}
	return off, slab
}

// countEdges returns how many edges the configured soft-positive rule
// selects from user u's latest upload — the sizing pass of collectEdges.
func (sv *Server) countEdges(u int) int {
	return sv.countEdgesIn(sv.store.View(u))
}

// countEdgesIn is countEdges over an explicit prediction slice — shared by
// the store-reading two-pass path and absorb's fused selection.
func (sv *Server) countEdgesIn(preds []comm.Prediction) int {
	if sv.cfg.GraphTopFrac > 0 {
		n := int(sv.cfg.GraphTopFrac*float64(len(preds)) + 0.5)
		if n < 1 {
			n = 1
		}
		if n > len(preds) {
			n = len(preds)
		}
		return n
	}
	n := 0
	for _, p := range preds {
		if p.Score >= sv.cfg.GraphThreshold {
			n++
		}
	}
	return n
}

// fillEdges writes user u's selected edges into dst (sized by countEdges).
// The top-fraction rule ranks the upload by (score desc, upload order) via a
// stable sort — identical order to the historical sort.SliceStable — with
// scores floored at 0.05; the threshold rule keeps upload order. Calls for
// distinct users only read server state, so they run concurrently.
func (sv *Server) fillEdges(u int, dst []graph.Edge, sorter *edgeSorter) {
	sv.fillEdgesIn(u, sv.store.View(u), dst, sorter)
}

// fillEdgesIn is fillEdges over an explicit prediction slice — shared by the
// store-reading two-pass path and absorb's fused selection.
func (sv *Server) fillEdgesIn(u int, preds []comm.Prediction, dst []graph.Edge, sorter *edgeSorter) {
	if sv.cfg.GraphTopFrac > 0 {
		if cap(sorter.order) < len(preds) {
			sorter.order = make([]int, len(preds))
		}
		sorter.order = sorter.order[:len(preds)]
		for i := range sorter.order {
			sorter.order[i] = i
		}
		sorter.preds = preds
		sort.Stable(sorter)
		for i := range dst {
			idx := sorter.order[i]
			w := preds[idx].Score
			if w < 0.05 {
				w = 0.05
			}
			dst[i] = graph.Edge{User: u, Item: preds[idx].Item, Weight: w}
		}
		return
	}
	k := 0
	for _, p := range preds {
		if p.Score >= sv.cfg.GraphThreshold {
			dst[k] = graph.Edge{User: u, Item: p.Item, Weight: p.Score}
			k++
		}
	}
}

// edgeSorter stably orders upload indices by score descending — the
// allocation-free replacement for a sort.SliceStable closure (its pointer
// receiver converts to sort.Interface without boxing a new value per user).
type edgeSorter struct {
	order []int
	preds []comm.Prediction
}

func (s *edgeSorter) Len() int { return len(s.order) }
func (s *edgeSorter) Less(a, b int) bool {
	return s.preds[s.order[a]].Score > s.preds[s.order[b]].Score
}
func (s *edgeSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }

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
	if len(samples) == 0 {
		return 0
	}
	var loss float64
	batches := 0
	for e := 0; e < sv.cfg.ServerEpochs; e++ {
		sv.s.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		for off := 0; off < len(samples); off += sv.cfg.ServerBatch {
			end := off + sv.cfg.ServerBatch
			if end > len(samples) {
				end = len(samples)
			}
			loss += sv.model.TrainBatch(samples[off:end])
			batches++
		}
	}
	return loss / float64(batches)
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

// disperseTarget identifies one dispersal recipient from the server's own
// state: the user id and the exclusion set Eq. 9's "vⱼ ∉ V̂ᵗᵢ" constraint
// walks (nil when the server holds no upload for the user). It deliberately
// carries no *Client — the networked coordinator disperses to users it only
// knows through the wire, so everything here must derive from what the server
// received.
type disperseTarget struct {
	id   int
	excl *bitset.Set
}

// disperseTargetInto builds user id's dispersal target from the upload store,
// filling (and returning) the caller's reusable scratch bitset. A user with
// no stored upload gets a nil exclusion set. The exclusion therefore reflects
// what the server actually received — under a truncated upload, the truncated
// item set — which is the only exclusion a transport-separated server can
// honour.
func (sv *Server) disperseTargetInto(id int, bit *bitset.Set) (disperseTarget, *bitset.Set) {
	tgt := disperseTarget{id: id}
	up := sv.store.View(id)
	if len(up) == 0 {
		return tgt, bit
	}
	if bit == nil {
		bit = bitset.New(sv.numItems)
	} else {
		bit.Reset()
	}
	for _, p := range up {
		if p.Item >= 0 && p.Item < sv.numItems {
			bit.Add(p.Item)
		}
	}
	tgt.excl = bit
	return tgt, bit
}
