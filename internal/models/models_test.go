package models

import (
	"math"
	"testing"

	"ptffedrec/internal/graph"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
)

func smallConfig() Config {
	return Config{NumUsers: 4, NumItems: 6, Dim: 3, LR: 0.01, Layers: 2, Seed: 7}
}

func smallGraph(cfg Config) *graph.Bipartite {
	g := graph.NewBipartite(cfg.NumUsers, cfg.NumItems)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(3, 5, 1)
	return g
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

// batchBCE recomputes the loss from scratch via the public Score path.
func batchBCE(m Recommender, batch []Sample, invalidate func()) float64 {
	if invalidate != nil {
		invalidate()
	}
	preds := make([]float64, len(batch))
	targets := make([]float64, len(batch))
	for i, s := range batch {
		preds[i] = m.Score(s.User, s.Item)
		targets[i] = s.Label
	}
	return nn.BCE(preds, targets)
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
		sc := m.Score(0, 0)
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
		got := m.ScoreItems(1, items)
		for i, v := range items {
			if math.Abs(got[i]-m.Score(1, v)) > 1e-12 {
				t.Fatalf("%s ScoreItems[%d] = %v, Score = %v", kind, i, got[i], m.Score(1, v))
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
		row := m.users.Row(smp.User)
		for k := range row {
			want := fd(loss, row, k)
			if math.Abs(g[k]-want) > 1e-5 {
				t.Fatalf("user %d grad[%d] = %v, want %v", smp.User, k, g[k], want)
			}
		}
		gi := ws.items.Row(smp.Item)
		irow := m.items.Row(smp.Item)
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
	targets := make([]float64, len(batch))
	for i, s := range batch {
		targets[i] = s.Label
	}
	loss := func() float64 {
		_, _, _, preds := m.forward(batch)
		return nn.BCE(preds, targets)
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
	users, _ := m.backward(batch, x, zs, as, nn.BCELogitGrad(preds, targets))
	checkParams("oracle")
	// Embedding rows.
	for _, smp := range batch {
		g := users.Row(smp.User)
		row := m.users.Row(smp.User)
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
		irow := m.items.Row(smp.Item)
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
			pos := m.Score(batch[i].User, batch[i].Item)
			neg := m.Score(batch[i+1].User, batch[i+1].Item)
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
		before := m.Score(0, 1)
		g := graph.NewBipartite(cfg.NumUsers, cfg.NumItems)
		g.AddEdge(0, 1, 1)
		g.AddEdge(0, 0, 1)
		g.AddEdge(1, 1, 1)
		gm.SetGraph(g)
		after := m.Score(0, 1)
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
			m.(GraphRecommender).SetGraph(graph.NewBipartite(1, 1))
		}()
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
	if got := m.Score(0, 0); math.Abs(got-0.7) > 0.05 {
		t.Fatalf("soft-label fit = %v, want ≈0.7", got)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(10, 20)
	if cfg.Dim != 32 || cfg.LR != 1e-3 || cfg.Layers != 3 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
}
