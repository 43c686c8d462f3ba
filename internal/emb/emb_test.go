package emb

import (
	"math"
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
	before0 := append([]float64(nil), tab.Row(0)...)
	before1 := append([]float64(nil), tab.Row(1)...)
	tab.Accumulate(1, []float64{1, -1})
	if tab.PendingGrad(1) == nil || tab.PendingGrad(0) != nil {
		t.Fatal("Accumulate did not leave exactly row 1 pending")
	}
	tab.Step()
	if tab.PendingGrad(1) != nil {
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
	tab.Accumulate(0, []float64{1, 0})
	tab.Accumulate(0, []float64{1, 0})
	w0 := append([]float64(nil), tab.Row(0)...)
	tab.Step()
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
	target := []float64{0.5, -0.25, 1.0}
	for i := 0; i < 800; i++ {
		w := tab.Row(0)
		g := make([]float64, 3)
		for k := range g {
			g[k] = 2 * (w[k] - target[k])
		}
		tab.Accumulate(0, g)
		tab.Step()
	}
	for k, tv := range target {
		if math.Abs(tab.Row(0)[k]-tv) > 1e-2 {
			t.Fatalf("dim %d converged to %v, want %v", k, tab.Row(0)[k], tv)
		}
	}
}

func TestLazyTableMaterialisesOnDemand(t *testing.T) {
	tab := NewLazyTable(rng.New(5), 4, DefaultAdam(0.01))
	if tab.Len() != 0 {
		t.Fatal("new lazy table not empty")
	}
	r := tab.Row(7)
	if len(r) != 4 {
		t.Fatalf("row len = %d", len(r))
	}
	if tab.Len() != 1 {
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

func TestLazyTableRowStable(t *testing.T) {
	tab := NewLazyTable(rng.New(6), 3, DefaultAdam(0.01))
	a := append([]float64(nil), tab.Row(2)...)
	b := tab.Row(2)
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("re-reading a row changed it")
		}
	}
}

func TestLazyTableStepOnlyDirty(t *testing.T) {
	tab := NewLazyTable(rng.New(7), 2, DefaultAdam(0.1))
	w0 := append([]float64(nil), tab.Row(0)...)
	_ = tab.Row(1) // materialised but never updated
	w1 := append([]float64(nil), tab.Row(1)...)
	tab.Accumulate(0, []float64{1, 1})
	tab.Step()
	if tab.Row(1)[0] != w1[0] {
		t.Fatal("clean row moved")
	}
	if tab.Row(0)[0] >= w0[0] {
		t.Fatal("dirty row did not move against gradient")
	}
	// Second step without new gradient must not move row 0 again.
	after := append([]float64(nil), tab.Row(0)...)
	tab.Step()
	if tab.Row(0)[0] != after[0] {
		t.Fatal("Step without gradient moved a row")
	}
}

// TestLazyTableStepVisitsEachDirtyRowOnce pins the dirty list: a row
// accumulated twice in a batch is stepped once, a materialised row never
// accumulated is not stepped, and Step leaves the list empty and every
// gradient zero.
func TestLazyTableStepVisitsEachDirtyRowOnce(t *testing.T) {
	tab := NewLazyTable(rng.New(9), 2, DefaultAdam(0.1))
	_ = tab.Row(1)
	for batch := 1; batch <= 3; batch++ {
		tab.Accumulate(3, []float64{1, 1})
		tab.Accumulate(5, []float64{-1, 1})
		tab.Accumulate(3, []float64{1, -1})
		tab.Step()
		if len(tab.dirty) != 0 {
			t.Fatalf("batch %d: %d rows left dirty after Step", batch, len(tab.dirty))
		}
		for id, want := range map[int]int{1: 0, 3: batch, 5: batch} {
			r := tab.rows[id]
			if r.step != want || r.dirty {
				t.Fatalf("batch %d: row %d at step %d (dirty %v), want %d", batch, id, r.step, r.dirty, want)
			}
			for _, g := range r.grad {
				if g != 0 {
					t.Fatalf("batch %d: row %d kept gradient %v", batch, id, r.grad)
				}
			}
		}
	}
}

func TestLazyTableConverges(t *testing.T) {
	tab := NewLazyTable(rng.New(8), 2, DefaultAdam(0.05))
	target := []float64{-0.3, 0.8}
	for i := 0; i < 800; i++ {
		w := tab.Row(11)
		tab.Accumulate(11, []float64{2 * (w[0] - target[0]), 2 * (w[1] - target[1])})
		tab.Step()
	}
	for k, tv := range target {
		if math.Abs(tab.Row(11)[k]-tv) > 1e-2 {
			t.Fatalf("dim %d = %v, want %v", k, tab.Row(11)[k], tv)
		}
	}
}
