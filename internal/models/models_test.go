package models

import (
	"math"
	"reflect"
	"testing"

	"ptffedrec/internal/graph"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
)

func smallConfig() Config {
	return Config{NumUsers: 4, NumItems: 6, Dim: 3, LR: 0.01, Layers: 2, Seed: 7}
}

// edgeRows collects a test graph's edges per user, in fill order.
type edgeRows [][]graph.Edge

func (r edgeRows) add(u, v int, w float64) {
	r[u] = append(r[u], graph.Edge{User: u, Item: v, Weight: w})
}

// engine stages every user's edges into a fresh engine, users ascending, and
// commits it: the graph a caller hands SetGraph.
func (r edgeRows) engine(numItems int) *graph.Incremental {
	inc := graph.NewIncremental(len(r), numItems)
	for u, es := range r {
		inc.StageUser(u, es)
	}
	inc.Commit(1)
	return inc
}

func smallGraph(cfg Config) *graph.Incremental {
	g := make(edgeRows, cfg.NumUsers)
	g.add(0, 0, 1)
	g.add(0, 1, 1)
	g.add(1, 1, 1)
	g.add(2, 3, 1)
	g.add(3, 4, 1)
	g.add(3, 5, 1)
	return g.engine(cfg.NumItems)
}

func smallBatch() []Sample {
	return []Sample{
		{User: 0, Item: 0, Label: 1},
		{User: 0, Item: 2, Label: 0},
		{User: 1, Item: 1, Label: 0.8},
		{User: 2, Item: 5, Label: 0.2},
		{User: 3, Item: 4, Label: 1},
	}
}

// batchBCE recomputes the loss from scratch through the logit block.
func batchBCE(m Recommender, batch []Sample, invalidate func()) float64 {
	if invalidate != nil {
		invalidate()
	}
	var sum float64
	for _, s := range batch {
		sum += nn.BCEOne(score(m, s.User, s.Item), s.Label)
	}
	return sum / float64(len(batch))
}

func fd(loss func() float64, x []float64, i int) float64 {
	const h = 1e-6
	orig := x[i]
	x[i] = orig + h
	fp := loss()
	x[i] = orig - h
	fm := loss()
	x[i] = orig
	return (fp - fm) / (2 * h)
}

func TestFactoryAllKinds(t *testing.T) {
	cfg := smallConfig()
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m, err := New(kind, cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", kind, err)
		}
		if m.Name() != string(kind) {
			t.Fatalf("Name = %s", m.Name())
		}
		sc := score(m, 0, 0)
		if sc <= 0 || sc >= 1 || math.IsNaN(sc) {
			t.Fatalf("%s Score = %v", kind, sc)
		}
	}
}

func TestFactoryErrors(t *testing.T) {
	if _, err := New("nope", smallConfig()); err == nil {
		t.Fatal("unknown kind accepted")
	}
	bad := smallConfig()
	bad.NumUsers = 0
	if _, err := New(KindMF, bad); err == nil {
		t.Fatal("zero users accepted")
	}
	bad = smallConfig()
	bad.Dim = 0
	if _, err := New(KindMF, bad); err == nil {
		t.Fatal("zero dim accepted")
	}
}

func TestParseKind(t *testing.T) {
	if k, err := ParseKind("ngcf"); err != nil || k != KindNGCF {
		t.Fatalf("ParseKind: %v %v", k, err)
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

// TestScoreItemsMatchesScore pins the two shapes the removed ScoreItems and
// Score scored in: a one-user block over an item list agrees with each item
// scored alone as a one-by-one block.
func TestScoreItemsMatchesScore(t *testing.T) {
	cfg := smallConfig()
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gm, ok := m.(GraphRecommender); ok {
			gm.SetGraph(smallGraph(cfg))
		}
		items := []int{0, 2, 5}
		got := make([]float64, len(items))
		scoreOneUser(m, got, 1, items)
		for i, v := range items {
			if math.Abs(got[i]-score(m, 1, v)) > 1e-12 {
				t.Fatalf("%s block[%d] = %v, alone = %v", kind, i, got[i], score(m, 1, v))
			}
		}
	}
}

func TestEmptyBatchNoop(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m, _ := New(kind, smallConfig())
		if loss := m.TrainBatch(nil); loss != 0 {
			t.Fatalf("%s empty batch loss = %v", kind, loss)
		}
	}
}

func TestMFGradCheck(t *testing.T) {
	m := NewMF(smallConfig(), rng.New(3))
	batch := smallBatch()
	loss := func() float64 { return batchBCE(m, batch, nil) }
	ws := newMFChunk(m.cfg.Dim)
	if got := m.accumulateGrad(ws, batch); math.Abs(got-loss()) > 1e-12 {
		t.Fatalf("accumulateGrad loss %v vs %v", got, loss())
	}
	for _, smp := range batch {
		g := ws.users.Row(smp.User)
		row := m.users.W.Row(smp.User)
		for k := range row {
			want := fd(loss, row, k)
			if math.Abs(g[k]-want) > 1e-5 {
				t.Fatalf("user %d grad[%d] = %v, want %v", smp.User, k, g[k], want)
			}
		}
		gi := ws.items.Row(smp.Item)
		irow := m.items.W.Row(smp.Item)
		for k := range irow {
			want := fd(loss, irow, k)
			if math.Abs(gi[k]-want) > 1e-5 {
				t.Fatalf("item %d grad[%d] = %v, want %v", smp.Item, k, gi[k], want)
			}
		}
	}
}

func TestNeuMFGradCheck(t *testing.T) {
	m := NewNeuMF(smallConfig(), rng.New(5))
	batch := smallBatch()
	n := float64(len(batch))
	loss := func() float64 {
		_, _, _, preds := m.forward(batch)
		var sum float64
		for i, p := range preds {
			sum += nn.BCEOne(p, batch[i].Label)
		}
		return sum / n
	}
	// Tower and output parameters.
	checkParams := func(engine string) {
		t.Helper()
		for _, p := range m.params {
			for i := range p.W.Data {
				want := fd(loss, p.W.Data, i)
				if math.Abs(p.Grad.Data[i]-want) > 1e-5 {
					t.Fatalf("%s: param %s[%d] grad = %v, want %v", engine, p.Name, i, p.Grad.Data[i], want)
				}
			}
		}
	}
	x, zs, as, preds := m.forward(batch)
	for i, s := range batch {
		preds[i] = (preds[i] - s.Label) / n // dL/dlogit
	}
	users, _ := m.backward(batch, x, zs, as, preds)
	checkParams("oracle")
	// Embedding rows.
	for _, smp := range batch {
		g := users.Row(smp.User)
		row := m.users.W.Row(smp.User)
		for k := range row {
			want := fd(loss, row, k)
			if math.Abs(g[k]-want) > 1e-5 {
				t.Fatalf("neumf user %d grad[%d] = %v, want %v", smp.User, k, g[k], want)
			}
		}
	}

	// The same check through the live engine: one shard over a borrowed
	// workspace, parameter gradients overwritten in place (no ZeroGrad
	// needed), dL/d(input row) left in the workspace.
	ws := m.ws.Get().(*neumfWS)
	defer m.ws.Put(ws)
	m.shardGrad(ws, batch, len(batch), m.wGrads, m.bGrads)
	checkParams("live")
	// smallBatch's items are distinct, so each input row's item half is that
	// item's whole gradient; user 0 appears twice and is covered above.
	d := m.cfg.Dim
	for i, smp := range batch {
		g := ws.dxs[0].Row(i)
		irow := m.items.W.Row(smp.Item)
		for k := range irow {
			want := fd(loss, irow, k)
			if math.Abs(g[d+k]-want) > 1e-5 {
				t.Fatalf("live: item %d grad[%d] = %v, want %v", smp.Item, k, g[d+k], want)
			}
		}
	}
}

func TestLightGCNGradCheck(t *testing.T) {
	cfg := smallConfig()
	m := NewLightGCN(cfg, rng.New(9))
	m.SetGraph(smallGraph(cfg))
	batch := smallBatch()
	loss := func() float64 { return batchBCE(m, batch, func() { m.dirty = true }) }
	m.dirty = true
	m.accumulateGrad(batch)
	d := cfg.Dim
	for i := range m.e0.Data {
		want := fd(loss, m.e0.Data, i)
		got := 0.0 // the gradient of a row that is not live is zero
		if s := m.slot[i/d]; s >= 0 {
			got = m.grad.Row(int(s))[i%d]
		}
		if math.Abs(got-want) > 1e-5 {
			t.Fatalf("lightgcn E0[%d] grad = %v, want %v", i, got, want)
		}
	}
}

func TestNGCFGradCheck(t *testing.T) {
	cfg := smallConfig()
	m := NewNGCF(cfg, rng.New(11))
	m.SetGraph(smallGraph(cfg))
	batch := smallBatch()
	loss := func() float64 { return batchBCE(m, batch, func() { m.dirty = true }) }
	m.dirty = true
	m.accumulateGrad(batch)

	for i := range m.e0.W.Data {
		want := fd(loss, m.e0.W.Data, i)
		if math.Abs(m.e0.Grad.Data[i]-want) > 1e-5 {
			t.Fatalf("ngcf E0[%d] grad = %v, want %v", i, m.e0.Grad.Data[i], want)
		}
	}
	for l := 0; l < cfg.Layers; l++ {
		for i := range m.w1[l].W.Data {
			want := fd(loss, m.w1[l].W.Data, i)
			if math.Abs(m.w1[l].Grad.Data[i]-want) > 1e-5 {
				t.Fatalf("ngcf W1[%d][%d] grad = %v, want %v", l, i, m.w1[l].Grad.Data[i], want)
			}
		}
		for i := range m.w2[l].W.Data {
			want := fd(loss, m.w2[l].W.Data, i)
			if math.Abs(m.w2[l].Grad.Data[i]-want) > 1e-5 {
				t.Fatalf("ngcf W2[%d][%d] grad = %v, want %v", l, i, m.w2[l].Grad.Data[i], want)
			}
		}
	}
}

// trainToFit drives a model on a fixed batch and returns first/last loss.
func trainToFit(t *testing.T, m Recommender, batch []Sample, steps int) (first, last float64) {
	t.Helper()
	first = m.TrainBatch(batch)
	for i := 1; i < steps-1; i++ {
		m.TrainBatch(batch)
	}
	last = m.TrainBatch(batch)
	return first, last
}

func TestModelsLearnSmallData(t *testing.T) {
	cfg := smallConfig()
	cfg.LR = 0.05
	batch := []Sample{
		{User: 0, Item: 0, Label: 1},
		{User: 0, Item: 1, Label: 0},
		{User: 1, Item: 2, Label: 1},
		{User: 1, Item: 3, Label: 0},
		{User: 2, Item: 4, Label: 1},
		{User: 2, Item: 5, Label: 0},
	}
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gm, ok := m.(GraphRecommender); ok {
			gm.SetGraph(smallGraph(cfg))
		}
		first, last := trainToFit(t, m, batch, 200)
		if last >= first {
			t.Fatalf("%s did not learn: first=%v last=%v", kind, first, last)
		}
		if last > 0.25 {
			t.Fatalf("%s converged poorly: last=%v", kind, last)
		}
		// Positives must outscore negatives after training.
		for i := 0; i+1 < len(batch); i += 2 {
			pos := score(m, batch[i].User, batch[i].Item)
			neg := score(m, batch[i+1].User, batch[i+1].Item)
			if pos <= neg {
				t.Fatalf("%s: pos %v <= neg %v for user %d", kind, pos, neg, batch[i].User)
			}
		}
	}
}

func TestGraphModelsReactToSetGraph(t *testing.T) {
	cfg := smallConfig()
	for _, kind := range []Kind{KindNGCF, KindLightGCN} {
		m, _ := New(kind, cfg)
		gm := m.(GraphRecommender)
		before := score(m, 0, 1)
		g := make(edgeRows, cfg.NumUsers)
		g.add(0, 1, 1)
		g.add(0, 0, 1)
		g.add(1, 1, 1)
		gm.SetGraph(g.engine(cfg.NumItems))
		after := score(m, 0, 1)
		if before == after {
			t.Fatalf("%s ignores the graph: %v == %v", kind, before, after)
		}
	}
}

func TestGraphUniverseMismatchPanics(t *testing.T) {
	cfg := smallConfig()
	for _, kind := range []Kind{KindNGCF, KindLightGCN} {
		m, _ := New(kind, cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted wrong-universe graph", kind)
				}
			}()
			m.(GraphRecommender).SetGraph(graph.NewIncremental(1, 1))
		}()
	}
}

// TestGraphModelsStartOnTheEmptyGraph pins the operators the constructors
// install without an engine to the empty graph's: Â without entries and, for
// NGCF, Â+I the identity.
func TestGraphModelsStartOnTheEmptyGraph(t *testing.T) {
	cfg := smallConfig()
	n := cfg.NumUsers + cfg.NumItems
	empty := graph.NewBipartite(cfg.NumUsers, cfg.NumItems)
	ngcf := NewNGCF(cfg, rng.New(1))
	if !reflect.DeepEqual(ngcf.adj, empty.NormalizedAdj()) || !reflect.DeepEqual(ngcf.adjSelf, empty.NormalizedAdjSelf()) {
		t.Fatalf("NGCF starts on Â %+v and Â+I %+v", ngcf.adj, ngcf.adjSelf)
	}
	lgcn := NewLightGCN(cfg, rng.New(1))
	if lgcn.adj.Rows != n || lgcn.adj.Cols != cfg.NumItems || lgcn.adj.NNZ() != 0 {
		t.Fatalf("LightGCN Â is %dx%d with %d entries, want %dx%d (columns by live slot) and none",
			lgcn.adj.Rows, lgcn.adj.Cols, lgcn.adj.NNZ(), n, cfg.NumItems)
	}
}

func TestLazyModelsWork(t *testing.T) {
	cfg := smallConfig()
	cfg.Lazy = true
	for _, kind := range []Kind{KindMF, KindNeuMF} {
		m, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := smallBatch()
		first := m.TrainBatch(batch)
		var last float64
		for i := 0; i < 150; i++ {
			last = m.TrainBatch(batch)
		}
		if last >= first {
			t.Fatalf("lazy %s did not learn: %v -> %v", kind, first, last)
		}
	}
}

func TestSoftLabelTraining(t *testing.T) {
	// Train MF toward a 0.7 soft label; prediction should approach 0.7.
	cfg := smallConfig()
	cfg.LR = 0.05
	m := NewMF(cfg, rng.New(21))
	batch := []Sample{{User: 0, Item: 0, Label: 0.7}}
	for i := 0; i < 600; i++ {
		m.TrainBatch(batch)
	}
	if got := score(m, 0, 0); math.Abs(got-0.7) > 0.05 {
		t.Fatalf("soft-label fit = %v, want ≈0.7", got)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(10, 20)
	if cfg.Dim != 32 || cfg.LR != 1e-3 || cfg.Layers != 3 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
}
