package emb

import (
	"math"
	"slices"
	"testing"

	"ptffedrec/internal/rng"
)

func TestTableInitNonZero(t *testing.T) {
	tab := NewTable(rng.New(1), 5, 4, DefaultAdam(0.01))
	if tab.Rows() != 5 {
		t.Fatalf("Rows = %d", tab.Rows())
	}
	var norm float64
	for _, v := range tab.W.Data {
		norm += v * v
	}
	if norm == 0 {
		t.Fatal("table initialized to zero")
	}
}

func TestTableSparseStep(t *testing.T) {
	tab := NewTable(rng.New(2), 3, 2, DefaultAdam(0.1))
	g := NewRowGrads(2)
	before0 := append([]float64(nil), tab.Row(0)...)
	before1 := append([]float64(nil), tab.Row(1)...)
	g.Add(1, []float64{1, -1})
	if len(g.ids) != 1 || g.ids[0] != 1 {
		t.Fatal("Add did not leave exactly row 1 pending")
	}
	tab.Step(g)
	if len(g.ids) != 0 {
		t.Fatal("Step did not clear pending gradients")
	}
	for k := range before0 {
		if tab.Row(0)[k] != before0[k] {
			t.Fatal("untouched row 0 changed")
		}
	}
	// Row 1 should move against the gradient: first Adam step ≈ lr.
	if math.Abs(tab.Row(1)[0]-(before1[0]-0.1)) > 1e-3 {
		t.Fatalf("row1[0] moved %v, want ≈ -lr", tab.Row(1)[0]-before1[0])
	}
	if math.Abs(tab.Row(1)[1]-(before1[1]+0.1)) > 1e-3 {
		t.Fatalf("row1[1] moved %v, want ≈ +lr", tab.Row(1)[1]-before1[1])
	}
}

func TestTableAccumulateSums(t *testing.T) {
	tab := NewTable(rng.New(3), 2, 2, DefaultAdam(0.1))
	g := NewRowGrads(2)
	g.Add(0, []float64{1, 0})
	g.Add(0, []float64{1, 0})
	if got := g.Row(0); got[0] != 2 || got[1] != 0 {
		t.Fatalf("pending row 0 = %v, want [2 0]", got)
	}
	w0 := append([]float64(nil), tab.Row(0)...)
	tab.Step(g)
	// Gradient 2 on dim 0, 0 on dim 1: dim 1 stays put.
	if tab.Row(0)[1] != w0[1] {
		t.Fatal("zero-gradient dimension moved")
	}
	if tab.Row(0)[0] >= w0[0] {
		t.Fatal("positive gradient did not decrease weight")
	}
}

func TestTableConvergesToTarget(t *testing.T) {
	// Minimise ||w - target||² for one row.
	tab := NewTable(rng.New(4), 1, 3, DefaultAdam(0.05))
	g := NewRowGrads(3)
	target := []float64{0.5, -0.25, 1.0}
	for i := 0; i < 800; i++ {
		w, row := tab.Row(0), g.Row(0)
		for k := range row {
			row[k] = 2 * (w[k] - target[k])
		}
		tab.Step(g)
	}
	for k, tv := range target {
		if math.Abs(tab.Row(0)[k]-tv) > 1e-2 {
			t.Fatalf("dim %d converged to %v, want %v", k, tab.Row(0)[k], tv)
		}
	}
}

func TestLazyTableMaterialisesOnDemand(t *testing.T) {
	tab := NewLazyTable(rng.New(5), 4, DefaultAdam(0.01))
	if tab.Rows() != 0 {
		t.Fatal("new lazy table not empty")
	}
	r := tab.Row(7)
	if len(r) != 4 {
		t.Fatalf("row len = %d", len(r))
	}
	if tab.Rows() != 1 {
		t.Fatal("row 7 not materialised")
	}
	var norm float64
	for _, v := range r {
		norm += v * v
	}
	if norm == 0 {
		t.Fatal("lazy row initialized to zero")
	}
}

// TestLazyTableRowStable also pins that rows never move: a slice Row
// returned before later first touches added pages still aliases its row.
func TestLazyTableRowStable(t *testing.T) {
	tab := NewLazyTable(rng.New(6), 3, DefaultAdam(0.01))
	held := tab.Row(2)
	a := append([]float64(nil), held...)
	for i := 10; i < 200; i++ {
		tab.Row(i)
	}
	b := tab.Row(2)
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("re-reading a row changed it")
		}
	}
	if &held[0] != &b[0] {
		t.Fatal("a row moved when the table grew")
	}
}

func TestLazyTableStepOnlyDirty(t *testing.T) {
	tab := NewLazyTable(rng.New(7), 2, DefaultAdam(0.1))
	g := NewRowGrads(2)
	w0 := append([]float64(nil), tab.Row(0)...)
	_ = tab.Row(1) // materialised but never updated
	w1 := append([]float64(nil), tab.Row(1)...)
	g.Add(0, []float64{1, 1})
	tab.Step(g)
	if tab.Row(1)[0] != w1[0] {
		t.Fatal("clean row moved")
	}
	if tab.Row(0)[0] >= w0[0] {
		t.Fatal("dirty row did not move against gradient")
	}
	// Second step without new gradient must not move row 0 again.
	after := append([]float64(nil), tab.Row(0)...)
	tab.Step(g)
	if tab.Row(0)[0] != after[0] {
		t.Fatal("Step without gradient moved a row")
	}
}

// TestLazyTableStepVisitsEachDirtyRowOnce pins the pending set: a row
// accumulated twice in a batch is stepped once, a materialised row never
// accumulated is not stepped, and Step leaves the set empty.
func TestLazyTableStepVisitsEachDirtyRowOnce(t *testing.T) {
	tab := NewLazyTable(rng.New(9), 2, DefaultAdam(0.1))
	g := NewRowGrads(2)
	_ = tab.Row(1)
	for batch := 1; batch <= 3; batch++ {
		g.Add(3, []float64{1, 1})
		g.Add(5, []float64{-1, 1})
		g.Add(3, []float64{1, -1})
		if len(g.ids) != 2 {
			t.Fatalf("batch %d: %d rows pending, want 2", batch, len(g.ids))
		}
		tab.Step(g)
		if len(g.ids) != 0 || slices.ContainsFunc(g.index.cells, func(c int32) bool { return c != 0 }) {
			t.Fatalf("batch %d: %d rows left pending after Step", batch, len(g.ids))
		}
		for id, want := range map[int]int{1: 0, 3: batch, 5: batch} {
			if got := tab.steps[tab.slot(id)]; got != want {
				t.Fatalf("batch %d: row %d at step %d, want %d", batch, id, got, want)
			}
		}
	}
}

func TestLazyTableConverges(t *testing.T) {
	tab := NewLazyTable(rng.New(8), 2, DefaultAdam(0.05))
	g := NewRowGrads(2)
	target := []float64{-0.3, 0.8}
	for i := 0; i < 800; i++ {
		w := tab.Row(11)
		g.Add(11, []float64{2 * (w[0] - target[0]), 2 * (w[1] - target[1])})
		tab.Step(g)
	}
	for k, tv := range target {
		if math.Abs(tab.Row(11)[k]-tv) > 1e-2 {
			t.Fatalf("dim %d = %v, want %v", k, tab.Row(11)[k], tv)
		}
	}
}

// TestTableStepSteadyStateAllocs pins a batch's accumulate-and-step at zero
// allocations on both layouts once its rows exist and the pending set has
// reached the batch's size.
func TestTableStepSteadyStateAllocs(t *testing.T) {
	for _, tc := range tableStepCases() {
		tab, g, run := tc.setup()
		run(tab, g)
		if allocs := testing.AllocsPerRun(20, func() { run(tab, g) }); allocs != 0 {
			t.Fatalf("%s: steady-state accumulate and Step allocate %v times per batch, want 0", tc.name, allocs)
		}
	}
}

// tableStepCase is one layout's batch: benchRows gradient rows at d = 16,
// accumulated then stepped.
type tableStepCase struct {
	name  string
	setup func() (*Table, *RowGrads, func(*Table, *RowGrads))
}

const benchRows = 64

func tableStepCases() []tableStepCase {
	const dim = 16
	grad := make([]float64, dim)
	for k := range grad {
		grad[k] = 0.01 * float64(k-dim/2)
	}
	run := func(stride int) func(*Table, *RowGrads) {
		return func(tab *Table, g *RowGrads) {
			for i := 0; i < benchRows; i++ {
				tab.Row(i * stride)
				g.Add(i*stride, grad)
			}
			tab.Step(g)
		}
	}
	return []tableStepCase{
		{"dense", func() (*Table, *RowGrads, func(*Table, *RowGrads)) {
			return NewTable(rng.New(1), benchRows*4, dim, DefaultAdam(0.01)), NewRowGrads(dim), run(4)
		}},
		{"lazy", func() (*Table, *RowGrads, func(*Table, *RowGrads)) {
			return NewLazyTable(rng.New(1), dim, DefaultAdam(0.01)), NewRowGrads(dim), run(idStride)
		}},
	}
}

// BenchmarkTableStep is one 64-row batch at d = 16 on each layout: read the
// rows, accumulate a gradient into each, step. It reports the cost per row
// and, with -benchmem, 0 allocs/op in steady state.
func BenchmarkTableStep(b *testing.B) {
	for _, tc := range tableStepCases() {
		b.Run(tc.name, func(b *testing.B) {
			tab, g, run := tc.setup()
			run(tab, g)
			b.ReportAllocs()
			for b.Loop() {
				run(tab, g)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
		})
	}
}
