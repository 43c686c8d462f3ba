package models

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"ptffedrec/internal/graph"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/persist"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// denseLightGCN is the reference the live-row LightGCN is held to: the dense
// implementation that shipped before it, kept verbatim — a full SpMM per
// layer into freshly cloned matrices, a map-of-rows gradient accumulator per
// chunk, and nn.Adam over every row of E⁰. It pays for the whole population
// on every call, which is what makes it a trustworthy oracle and unusable in
// production.
type denseLightGCN struct {
	cfg Config
	e0  *nn.Param

	adj   *tensor.CSR
	final *tensor.Matrix
	dirty bool
}

func newDenseLightGCN(cfg Config, s *rng.Stream) *denseLightGCN {
	m := &denseLightGCN{
		cfg:   cfg,
		e0:    nn.NewParam("lightgcn.E0", cfg.NumUsers+cfg.NumItems, cfg.Dim),
		dirty: true,
	}
	nn.Normal(s.Derive("e0"), m.e0.W, 0.1)
	m.SetGraph(graph.NewBipartite(cfg.NumUsers, cfg.NumItems))
	return m
}

func (m *denseLightGCN) SetGraph(g *graph.Bipartite) {
	m.adj = g.NormalizedAdj()
	m.dirty = true
}

// scale and addScaled are the tensor.Matrix methods the oracle was written
// against, their loop bodies verbatim: m *= a and m += a·b, element-wise, in
// place, each returning m.
func scale(m *tensor.Matrix, a float64) *tensor.Matrix {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

func addScaled(m *tensor.Matrix, a float64, b *tensor.Matrix) *tensor.Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	for i, v := range b.Data {
		m.Data[i] += a * v
	}
	return m
}

func (m *denseLightGCN) propagate() *tensor.Matrix {
	if !m.dirty && m.final != nil {
		return m.final
	}
	c := 1.0 / float64(m.cfg.Layers+1)
	final := scale(m.e0.W.Clone(), c)
	cur := m.e0.W
	buf := tensor.New(cur.Rows, cur.Cols)
	for l := 0; l < m.cfg.Layers; l++ {
		m.adj.MulDenseInto(buf, cur)
		addScaled(final, c, buf)
		cur = buf.Clone()
	}
	m.final = final
	m.dirty = false
	return final
}

func (m *denseLightGCN) itemNode(v int) int { return m.cfg.NumUsers + v }

func (m *denseLightGCN) logit(u, v int) float64 {
	f := m.propagate()
	return tensor.Dot(f.Row(u), f.Row(m.itemNode(v)))
}

func (m *denseLightGCN) TrainBatch(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	loss := m.accumulateGrad(batch)
	nn.Adam(m.cfg.LR, []*nn.Param{m.e0})
	m.dirty = true
	return loss
}

// denseRowAccum is the per-chunk gradient accumulator of the dense
// implementation: one freshly made vector per touched row.
type denseRowAccum struct {
	dim   int
	order []int
	rows  map[int][]float64
}

func (a *denseRowAccum) axpy(i int, s float64, x []float64) {
	buf, ok := a.rows[i]
	if !ok {
		buf = make([]float64, a.dim)
		a.rows[i] = buf
		a.order = append(a.order, i)
	}
	for k, v := range x {
		buf[k] += s * v
	}
}

func (m *denseLightGCN) accumulateGrad(batch []Sample) float64 {
	f := m.propagate()
	n := len(batch)
	dF := tensor.New(f.Rows, f.Cols)
	var lossSum float64
	for c := 0; c < trainChunks(n); c++ {
		lo, hi := trainChunkBounds(c, n)
		df := &denseRowAccum{dim: m.cfg.Dim, rows: make(map[int][]float64)}
		var chunkLoss float64
		for _, smp := range batch[lo:hi] {
			un, vn := smp.User, m.itemNode(smp.Item)
			pred := nn.Sigmoid(tensor.Dot(f.Row(un), f.Row(vn)))
			chunkLoss += nn.BCEOne(pred, smp.Label)
			g := (pred - smp.Label) / float64(n)
			df.axpy(un, g, f.Row(vn))
			df.axpy(vn, g, f.Row(un))
		}
		lossSum += chunkLoss
		for _, i := range df.order {
			dst := dF.Row(i)
			for k, v := range df.rows[i] {
				dst[k] += v
			}
		}
	}

	c := 1.0 / float64(m.cfg.Layers+1)
	g := scale(dF.Clone(), c)
	buf := tensor.New(dF.Rows, dF.Cols)
	for l := m.cfg.Layers; l >= 1; l-- {
		m.adj.MulDenseInto(buf, g)
		g = scale(dF.Clone(), c).AddInPlace(buf)
	}
	m.e0.Grad.AddInPlace(g)
	return lossSum / float64(n)
}

func (m *denseLightGCN) Snapshot(w io.Writer) error {
	if err := writeHeader(w, KindLightGCN); err != nil {
		return err
	}
	if err := persist.WriteFloat64s(w, m.e0.W.Data); err != nil {
		return err
	}
	if err := persist.WriteUint64(w, uint64(m.e0.T)); err != nil {
		return err
	}
	if err := persist.WriteFloat64s(w, m.e0.M.Data); err != nil {
		return err
	}
	return persist.WriteFloat64s(w, m.e0.V.Data)
}

// sameBits reports whether two float slices are equal bit for bit (so a -0
// is not a +0 and a NaN equals itself).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// liveRowWorld drives a live-row LightGCN and the dense oracle through the
// same history: graph replacements from a fresh engine or the maintained
// one (the "entry points" the scripts alternate), training, scoring and
// checkpoint-resume, comparing as it goes.
type liveRowWorld struct {
	t       *testing.T
	cfg     Config
	live    *LightGCN
	dense   *denseLightGCN
	edges   [][]graph.Edge // the current graph, per user in fill order
	inc     *graph.Incremental
	fresh   bool // the live model's current graph came from a fresh engine, not inc
	history []string
}

func newLiveRowWorld(t *testing.T, cfg Config) *liveRowWorld {
	s := rng.New(cfg.Seed)
	return &liveRowWorld{
		t:     t,
		cfg:   cfg,
		live:  NewLightGCN(cfg, s),
		dense: newDenseLightGCN(cfg, s),
		edges: make([][]graph.Edge, cfg.NumUsers),
		inc:   graph.NewIncremental(cfg.NumUsers, cfg.NumItems),
	}
}

func (w *liveRowWorld) fail(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("workers=%d after %v: %s", w.cfg.TrainWorkers, w.history, fmt.Sprintf(format, args...))
}

func (w *liveRowWorld) bipartite() *graph.Bipartite {
	g := graph.NewBipartite(w.cfg.NumUsers, w.cfg.NumItems)
	for _, row := range w.edges {
		for _, e := range row {
			g.AddEdge(e.User, e.Item, e.Weight)
		}
	}
	return g
}

// installGraph hands the current graph to the live model from the chosen
// engine: the maintained one, or a fresh one staged with every user's edges.
func (w *liveRowWorld) installGraph(fresh bool) {
	w.fresh = fresh
	if fresh {
		w.live.SetGraph(edgeRows(w.edges).engine(w.cfg.NumItems))
	} else {
		w.live.SetGraph(w.inc)
	}
}

// mutateGraph replaces the edge sets of a few users — an empty set with
// probability 1/3, so users that trained lose their last edge — and installs
// the result in the live model and, through the full build, in the oracle.
func (w *liveRowWorld) mutateGraph(s *rng.Stream, fresh bool) {
	w.history = append(w.history, map[bool]string{true: "SetGraph(fresh)", false: "SetGraph(maintained)"}[fresh])
	users := s.SampleInts(w.cfg.NumUsers, 1+s.Intn(4))
	sort.Ints(users) // the engine takes its staged users in ascending order
	w.inc.Begin()
	for _, u := range users {
		w.edges[u] = w.edges[u][:0]
		if s.Intn(3) > 0 {
			for k := 1 + s.Intn(4); k > 0; k-- {
				w.edges[u] = append(w.edges[u], graph.Edge{User: u, Item: s.Intn(w.cfg.NumItems), Weight: 0.1 + 0.9*s.Float64()})
			}
		}
		w.inc.StageUser(u, w.edges[u])
	}
	w.inc.Commit(w.cfg.TrainWorkers)
	w.installGraph(fresh)
	w.dense.SetGraph(w.bipartite())
}

// train runs one batch on both models. Batch users are drawn from the whole
// population, so most batches carry users with no edge at all.
func (w *liveRowWorld) train(s *rng.Stream, n int) {
	w.history = append(w.history, fmt.Sprintf("TrainBatch(%d)", n))
	batch := make([]Sample, n)
	for i := range batch {
		batch[i] = Sample{User: s.Intn(w.cfg.NumUsers), Item: s.Intn(w.cfg.NumItems), Label: float64(s.Intn(11)) / 10}
	}
	got, want := w.live.TrainBatch(batch), w.dense.TrainBatch(batch)
	if math.Float64bits(got) != math.Float64bits(want) {
		w.fail("loss %v, dense %v", got, want)
	}
}

// score compares the logit block and the per-item oracle loop with the dense
// oracle's dot products.
func (w *liveRowWorld) score(s *rng.Stream) {
	w.history = append(w.history, "score")
	users := s.SampleInts(w.cfg.NumUsers, 3)
	items := s.SampleInts(w.cfg.NumItems, 1+s.Intn(w.cfg.NumItems))
	block := tensor.New(len(users), len(items))
	w.live.ScoreUsersBlockLogitsInto(block, users, items)
	for i, u := range users {
		probs := w.live.scoreItemsOracle(u, items)
		for j, v := range items {
			want := w.dense.logit(u, v)
			if got := block.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
				w.fail("ScoreUsersBlockLogitsInto(%d,%d) = %v, dense %v", u, v, got, want)
			}
			if p := nn.Sigmoid(want); probs[j] != p {
				w.fail("scoreItemsOracle(%d,%d) = %v, dense %v", u, v, probs[j], p)
			}
		}
	}
}

func (w *liveRowWorld) snapshots() (live, dense []byte) {
	var lb, db bytes.Buffer
	if err := w.live.Snapshot(&lb); err != nil {
		w.t.Fatal(err)
	}
	if err := w.dense.Snapshot(&db); err != nil {
		w.t.Fatal(err)
	}
	return lb.Bytes(), db.Bytes()
}

// check compares everything the two models hold: E⁰ and both Adam moments
// (the snapshot carries all three, plus the step counter) and the readout.
func (w *liveRowWorld) check() {
	w.history = append(w.history, "check")
	if !sameBits(w.live.e0.Data, w.dense.e0.W.Data) {
		w.fail("E0 differs from the dense path")
	}
	if lb, db := w.snapshots(); !bytes.Equal(lb, db) {
		w.fail("snapshot bytes differ from the dense path")
	}
	if !sameBits(w.live.propagate().Data, w.dense.propagate().Data) {
		w.fail("propagated embeddings differ from the dense path")
	}
	for _, g := range w.live.grad.Data {
		if g != 0 {
			w.fail("a gradient survived the optimizer step")
		}
	}
	for _, g := range w.live.dF.Data {
		if g != 0 {
			w.fail("dF was not left zeroed")
		}
	}
}

// resume snapshots the live model and continues on a fresh one restored from
// it, while the oracle runs on uninterrupted: the restore has to rebuild the
// live list from the moments and the graph, in either order, and — when the
// fresh model has already scored (warm) — rewrite every readout it cached.
func (w *liveRowWorld) resume(graphFirst, warm bool) {
	w.history = append(w.history, fmt.Sprintf("resume(graphFirst=%v, warm=%v)", graphFirst, warm))
	snap, want := w.snapshots()
	if !bytes.Equal(snap, want) {
		w.fail("snapshot bytes differ from the dense path")
	}
	cfg := w.cfg
	cfg.Seed++ // the restore must overwrite every weight
	w.live = NewLightGCN(cfg, rng.New(cfg.Seed))
	if graphFirst {
		w.installGraph(w.fresh)
	}
	if warm {
		w.live.WarmScoring()
	}
	if err := w.live.Restore(bytes.NewReader(snap)); err != nil {
		w.t.Fatal(err)
	}
	if !graphFirst {
		w.installGraph(w.fresh)
	}
}

// run interprets script: each op is an opcode byte and a parameter byte that
// seeds the op's random choices. Exhausted scripts read as zeros.
func (w *liveRowWorld) run(script []byte) {
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		s := rng.New(uint64(arg)<<16 | uint64(i))
		switch op % 8 {
		case 0:
			w.mutateGraph(s, true)
		case 1:
			w.mutateGraph(s, false)
		case 2, 3:
			w.train(s, 1+int(arg)%40)
		case 4:
			w.train(s, trainChunkSize+2*int(arg)) // spans gradient chunks
		case 5:
			w.score(s)
		case 6:
			w.resume(arg&1 == 0, arg&2 == 0)
		case 7:
			w.check()
		}
	}
	w.check()
}

func liveRowConfig(layers, workers int) Config {
	return Config{NumUsers: 120, NumItems: 9, Dim: 4, LR: 0.05, Layers: layers, TrainWorkers: workers, Seed: 13}
}

// liveRowScripts are histories chosen to hit the cases the live-row rule has
// to get right; the randomized test and the fuzzer add the ones nobody chose.
var liveRowScripts = map[string][]byte{
	"train before any graph":         {2, 9, 7, 0, 4, 200, 7, 0},
	"graph, train, lose edges":       {0, 1, 2, 5, 0, 1, 0, 1, 2, 6, 7, 0, 1, 3, 1, 3, 2, 7},
	"alternate entry points":         {0, 3, 1, 4, 2, 8, 0, 5, 1, 6, 4, 9, 5, 1},
	"resume then train unscored":     {1, 2, 2, 3, 4, 7, 6, 0, 2, 4, 6, 1, 3, 5, 5, 2},
	"resume after edges went":        {0, 7, 4, 90, 0, 7, 0, 7, 6, 1, 2, 3, 6, 0, 4, 17},
	"score between steps":            {1, 11, 5, 1, 2, 2, 5, 2, 0, 12, 5, 3, 3, 4, 5, 4},
	"check between steps":            {7, 0, 1, 20, 7, 0, 2, 21, 7, 0, 6, 0, 7, 0, 2, 22},
	"many graphs, one long training": {0, 1, 1, 2, 0, 3, 1, 4, 0, 5, 1, 6, 4, 255, 4, 128, 4, 1},
	// A fresh model restored from a snapshot gives its moment rows slots in
	// ascending row order, not in the order they were first used; the live
	// set then grows past them through the incremental graph and training.
	"restore fresh, then grow": {4, 60, 1, 5, 2, 9, 6, 1, 1, 7, 2, 30, 5, 3, 7, 0, 4, 11, 6, 3, 3, 8, 1, 9, 5, 4},
}

// TestLightGCNLiveRowsMatchDense holds the live-row model to the dense oracle
// — E⁰, both moments, the readout and the snapshot bytes, bit for bit — over
// chosen and random histories, for every layer count and worker count.
func TestLightGCNLiveRowsMatchDense(t *testing.T) {
	scripts := make(map[string][]byte, len(liveRowScripts))
	for name, script := range liveRowScripts {
		scripts[name] = script
	}
	s := rng.New(2024)
	for i := 0; i < 24; i++ {
		script := make([]byte, 2*(8+s.Intn(40)))
		for j := range script {
			script[j] = byte(s.Intn(256))
		}
		scripts[fmt.Sprintf("random %d", i)] = script
	}
	for name, script := range scripts {
		for _, workers := range []int{1, 2, 8} {
			for layers := 0; layers <= 3; layers++ {
				t.Run(fmt.Sprintf("%s/layers=%d/workers=%d", name, layers, workers), func(t *testing.T) {
					newLiveRowWorld(t, liveRowConfig(layers, workers)).run(script)
				})
			}
		}
	}
}

// FuzzLightGCNLiveRows lets the fuzzer write the history.
func FuzzLightGCNLiveRows(f *testing.F) {
	for _, script := range liveRowScripts {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		for _, workers := range []int{1, 2, 8} {
			newLiveRowWorld(t, liveRowConfig(1+len(script)%3, workers)).run(script)
		}
	})
}

// TestLightGCNDeadRowNegativeZero pins the one value the closed form could
// get wrong: the dense path turns a never-touched row's -0 weight into a +0
// readout (it adds a zero per layer), and so must the closed form.
func TestLightGCNDeadRowNegativeZero(t *testing.T) {
	script := []byte{0, 1, 2, 2}
	for layers := 0; layers <= 2; layers++ {
		probe := newLiveRowWorld(t, liveRowConfig(layers, 1))
		probe.run(script)
		dead := 0
		for probe.live.slot[dead] >= 0 {
			dead++
		}
		w := newLiveRowWorld(t, liveRowConfig(layers, 1))
		negZero := math.Copysign(0, -1)
		w.live.e0.Row(dead)[1], w.dense.e0.W.Row(dead)[1] = negZero, negZero
		w.run(script)
		if w.live.slot[dead] >= 0 {
			t.Fatalf("user %d was meant to stay untouched", dead)
		}
	}
}

// TestLightGCNLiveListGrowsWithUse pins the rule itself: items are live from
// the start, a user joins on its first edge or its first batch, and nobody
// ever leaves.
func TestLightGCNLiveListGrowsWithUse(t *testing.T) {
	cfg := smallConfig()
	m := NewLightGCN(cfg, rng.New(3))
	if len(m.live) != cfg.NumItems {
		t.Fatalf("a fresh model has %d live rows, want the %d items", len(m.live), cfg.NumItems)
	}
	g := make(edgeRows, cfg.NumUsers)
	g.add(2, 1, 1)
	m.SetGraph(g.engine(cfg.NumItems))
	m.TrainBatch([]Sample{{User: 0, Item: 3, Label: 1}})
	m.SetGraph(graph.NewIncremental(cfg.NumUsers, cfg.NumItems))
	want := map[int]bool{0: true, 2: true}
	for u := 0; u < cfg.NumUsers; u++ {
		if live := m.slot[u] >= 0; live != want[u] {
			t.Fatalf("user %d live = %v, want %v", u, live, want[u])
		}
	}
	if len(m.live) != cfg.NumItems+2 {
		t.Fatalf("%d live rows, want %d", len(m.live), cfg.NumItems+2)
	}
}
