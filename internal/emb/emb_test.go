package emb

import (
	"math"
	"slices"
	"testing"

	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// rowOf returns a fresh copy of row i of tab, widened if tab is lazy.
func rowOf(tab *Table, i int) []float64 {
	r := make([]float64, tab.Dim)
	tab.ReadRow(r, i)
	return r
}

func TestTableInitNonZero(t *testing.T) {
	tab := NewTable(rng.New(1), 5, 4, 0.01)
	if n := len(tab.steps); n != 5 {
		t.Fatalf("dense table holds %d rows, want 5", n)
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
	tab := NewTable(rng.New(2), 3, 2, 0.1)
	g := NewRowGrads(2)
	before0 := rowOf(tab, 0)
	before1 := rowOf(tab, 1)
	g.Add(1, []float64{1, -1})
	if len(g.ids) != 1 || g.ids[0] != 1 {
		t.Fatal("Add did not leave exactly row 1 pending")
	}
	tab.Step(g)
	if len(g.ids) != 0 {
		t.Fatal("Step did not clear pending gradients")
	}
	for k := range before0 {
		if rowOf(tab, 0)[k] != before0[k] {
			t.Fatal("untouched row 0 changed")
		}
	}
	// Row 1 should move against the gradient: first Adam step ≈ lr.
	if math.Abs(rowOf(tab, 1)[0]-(before1[0]-0.1)) > 1e-3 {
		t.Fatalf("row1[0] moved %v, want ≈ -lr", rowOf(tab, 1)[0]-before1[0])
	}
	if math.Abs(rowOf(tab, 1)[1]-(before1[1]+0.1)) > 1e-3 {
		t.Fatalf("row1[1] moved %v, want ≈ +lr", rowOf(tab, 1)[1]-before1[1])
	}
}

func TestTableAccumulateSums(t *testing.T) {
	tab := NewTable(rng.New(3), 2, 2, 0.1)
	g := NewRowGrads(2)
	g.Add(0, []float64{1, 0})
	g.Add(0, []float64{1, 0})
	if got := g.Row(0); got[0] != 2 || got[1] != 0 {
		t.Fatalf("pending row 0 = %v, want [2 0]", got)
	}
	w0 := rowOf(tab, 0)
	tab.Step(g)
	// Gradient 2 on dim 0, 0 on dim 1: dim 1 stays put.
	if rowOf(tab, 0)[1] != w0[1] {
		t.Fatal("zero-gradient dimension moved")
	}
	if rowOf(tab, 0)[0] >= w0[0] {
		t.Fatal("positive gradient did not decrease weight")
	}
}

func TestTableConvergesToTarget(t *testing.T) {
	// Minimise ||w - target||² for one row.
	tab := NewTable(rng.New(4), 1, 3, 0.05)
	g := NewRowGrads(3)
	target := []float64{0.5, -0.25, 1.0}
	for i := 0; i < 800; i++ {
		w, row := rowOf(tab, 0), g.Row(0)
		for k := range row {
			row[k] = 2 * (w[k] - target[k])
		}
		tab.Step(g)
	}
	for k, tv := range target {
		if math.Abs(rowOf(tab, 0)[k]-tv) > 1e-2 {
			t.Fatalf("dim %d converged to %v, want %v", k, rowOf(tab, 0)[k], tv)
		}
	}
}

func TestLazyTableMaterialisesOnDemand(t *testing.T) {
	tab := NewLazyTable(rng.New(5), 4, 0.01)
	if len(tab.steps) != 0 {
		t.Fatal("new lazy table not empty")
	}
	r := rowOf(tab, 7)
	if len(r) != 4 {
		t.Fatalf("row len = %d", len(r))
	}
	if len(tab.steps) != 1 {
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

// TestLazyTableRowStable also pins that rows never move: the float32 storage
// of a row read before later first touches added pages is still its row.
func TestLazyTableRowStable(t *testing.T) {
	tab := NewLazyTable(rng.New(6), 3, 0.01)
	a := rowOf(tab, 2)
	held := &tab.lazyRow(tab.slot(2))[0]
	for i := 10; i < 200; i++ {
		rowOf(tab, i)
	}
	if b := rowOf(tab, 2); !slices.Equal(a, b) {
		t.Fatalf("re-reading a row changed it: %v, then %v", a, b)
	}
	if held != &tab.lazyRow(tab.slot(2))[0] {
		t.Fatal("a row moved when the table grew")
	}
}

// TestLazyStepRoundsOnce pins a lazy row's rounding contract: after a Step
// the row holds exactly float32 of the weights and moments AdamUpdate
// computes, in float64, from the widened row. Each case writes a row's
// float32 storage directly, then steps it once: signed-zero gradients, on
// zero and on live moments; subnormal moments, which a step keeps or
// flushes; and a weight and both moments whose float64 results fall within
// half an ulp below a power of two and so round up into the next binade.
func TestLazyStepRoundsOnce(t *testing.T) {
	const lr = 0.75 / (1 << 23) // three quarters of an ulp of [1, 2)
	negZero := math.Copysign(0, -1)
	sub := math.Float32frombits(1) // the least float32 subnormal
	near1 := 1 - 1.0/(1<<24)       // g with m and v at 1: both land just below 1
	cases := []struct {
		name    string
		w, m, v []float32
		g       []float64
		steps   int  // steps the row has taken before
		binade  bool // whether the row is the binade case
	}{
		{"signed zero gradients", []float32{0.5, -0.25, 0, float32(negZero), 1},
			[]float32{0, 0, 0.01, -0.02, 0}, []float32{0, 0, 1e-4, 2e-4, 0},
			[]float64{0, negZero, 0, negZero, negZero}, 0, false},
		{"subnormal moments", []float32{0.125, -0.5, 0.25, 1, -1},
			[]float32{sub, -sub, 1e-40, -3e-39, sub}, []float32{sub, 3 * sub, 1e-39, 5e-40, 7 * sub},
			[]float64{1e-30, -1e-25, 0, 1e-40, negZero}, 4, false},
		{"rounding up across a binade", []float32{math.Nextafter32(2, 0), 1, 1, 0.5, -0.5},
			[]float32{0, 1, 1, 0, 0}, []float32{0, 1, 1, 0, 0},
			[]float64{-1, near1, near1, 0.25, -0.25}, 0, true},
	}
	for _, c := range cases {
		const id = 9
		d := len(c.g)
		tab := NewLazyTable(rng.New(1), d, lr)
		s := tab.slot(id)
		row := tab.lazyRow(s)
		copy(row, c.w)
		copy(row[d:], c.m)
		copy(row[2*d:], c.v)
		tab.steps[s] = c.steps

		w, m, v := wide(c.w), wide(c.m), wide(c.v)
		up := tensor.NewAdamStep(lr, c.steps+1, false)
		tensor.AdamUpdate(w, m, v, append([]float64(nil), c.g...), &up)
		want := slices.Concat(w, m, v)

		g := NewRowGrads(d)
		copy(g.Row(id), c.g)
		tab.Step(g)
		for k, got := range tab.lazyRow(s) {
			if math.Float32bits(got) != math.Float32bits(float32(want[k])) {
				t.Errorf("%s: value %d = %v, want float32(%v) = %v", c.name, k, got, want[k], float32(want[k]))
			}
		}
		if !c.binade {
			continue
		}
		// The binade case's premise: the float64 weight and, in lanes 1
		// and 2, both moments lie below a power of two they round up to.
		for _, k := range []int{0, d + 1, d + 2, 2*d + 1, 2*d + 2} {
			x := want[k]
			if r := float64(float32(x)); r <= x || math.Abs(r) != math.Exp2(math.Round(math.Log2(math.Abs(r)))) {
				t.Errorf("%s: value %d = %v rounds to %v, not up to a power of two", c.name, k, x, r)
			}
		}
	}
}

func TestLazyTableStepOnlyDirty(t *testing.T) {
	tab := NewLazyTable(rng.New(7), 2, 0.1)
	g := NewRowGrads(2)
	w0 := rowOf(tab, 0)
	_ = rowOf(tab, 1) // materialised but never updated
	w1 := rowOf(tab, 1)
	g.Add(0, []float64{1, 1})
	tab.Step(g)
	if rowOf(tab, 1)[0] != w1[0] {
		t.Fatal("clean row moved")
	}
	if rowOf(tab, 0)[0] >= w0[0] {
		t.Fatal("dirty row did not move against gradient")
	}
	// Second step without new gradient must not move row 0 again.
	after := rowOf(tab, 0)
	tab.Step(g)
	if rowOf(tab, 0)[0] != after[0] {
		t.Fatal("Step without gradient moved a row")
	}
}

// TestLazyTableStepVisitsEachDirtyRowOnce pins the pending set: a row
// accumulated twice in a batch is stepped once, a materialised row never
// accumulated is not stepped, and Step leaves the set empty.
func TestLazyTableStepVisitsEachDirtyRowOnce(t *testing.T) {
	tab := NewLazyTable(rng.New(9), 2, 0.1)
	g := NewRowGrads(2)
	_ = rowOf(tab, 1)
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
	tab := NewLazyTable(rng.New(8), 2, 0.05)
	g := NewRowGrads(2)
	target := []float64{-0.3, 0.8}
	for i := 0; i < 800; i++ {
		w := rowOf(tab, 11)
		g.Add(11, []float64{2 * (w[0] - target[0]), 2 * (w[1] - target[1])})
		tab.Step(g)
	}
	for k, tv := range target {
		if math.Abs(rowOf(tab, 11)[k]-tv) > 1e-2 {
			t.Fatalf("dim %d = %v, want %v", k, rowOf(tab, 11)[k], tv)
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
	buf := make([]float64, dim)
	run := func(stride int) func(*Table, *RowGrads) {
		return func(tab *Table, g *RowGrads) {
			for i := 0; i < benchRows; i++ {
				tab.ReadRow(buf, i*stride)
				g.Add(i*stride, grad)
			}
			tab.Step(g)
		}
	}
	return []tableStepCase{
		{"dense", func() (*Table, *RowGrads, func(*Table, *RowGrads)) {
			return NewTable(rng.New(1), benchRows*4, dim, 0.01), NewRowGrads(dim), run(4)
		}},
		{"lazy", func() (*Table, *RowGrads, func(*Table, *RowGrads)) {
			return NewLazyTable(rng.New(1), dim, 0.01), NewRowGrads(dim), run(idStride)
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
