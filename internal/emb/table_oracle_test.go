package emb

// The two table types the slab-backed Table replaced, kept as its reference
// (renamed tableOracle and lazyTableOracle so they sit beside it): a dense
// table whose pending gradients and step counters lived in maps, and a lazy
// table holding each materialised row as four slices behind a map entry,
// its weights and moments as float32 at rest as the live lazy layout keeps
// them.
// Each reports a row's weights, moments and step count through state.
// FuzzTableMatchesOracle drives both layouts through the same random
// sequences on the live type and on these, and
// TestLazyTableRetainedBytesPerRow measures what each keeps per row.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// tableOracle is a dense embedding table with per-row Adam state. Rows are updated
// sparsely: only rows touched by a batch pay optimizer cost.
type tableOracle struct {
	Dim  int
	W    *tensor.Matrix
	grad map[int][]float64
	m, v *tensor.Matrix
	step map[int]int
	lr   float64
}

// newTableOracle allocates a rows×dim table initialized with N(0, 0.01) — the
// conventional embedding init for collaborative filtering models.
func newTableOracle(s *rng.Stream, rows, dim int, lr float64) *tableOracle {
	t := &tableOracle{
		Dim:  dim,
		W:    tensor.New(rows, dim),
		grad: map[int][]float64{},
		m:    tensor.New(rows, dim),
		v:    tensor.New(rows, dim),
		step: map[int]int{},
		lr:   lr,
	}
	for i := range t.W.Data {
		t.W.Data[i] = s.Normal(0, 0.1)
	}
	return t
}

// Row returns row i (aliases storage — do not mutate outside Accumulate/Step).
func (t *tableOracle) Row(i int) []float64 { return t.W.Row(i) }

// Accumulate adds g into the pending gradient for row i.
func (t *tableOracle) Accumulate(i int, g []float64) {
	buf, ok := t.grad[i]
	if !ok {
		buf = make([]float64, t.Dim)
		t.grad[i] = buf
	}
	tensor.AddVec(g, buf)
}

// Step applies sparse Adam to every row with a pending gradient, then clears
// the pending set. Each row keeps its own step counter for bias correction,
// matching the sparse-Adam behaviour of mainstream frameworks.
func (t *tableOracle) Step() {
	for i, g := range t.grad {
		t.step[i]++
		s := tensor.NewAdamStep(t.lr, t.step[i], false)
		tensor.AdamUpdate(t.W.Row(i), t.m.Row(i), t.v.Row(i), g, &s)
		delete(t.grad, i)
	}
}

// state returns row id's weights, both moments and step count; a dense table
// holds every row.
func (t *tableOracle) state(id int) (w, m, v []float64, step int, ok bool) {
	if id < 0 || id >= t.W.Rows {
		return nil, nil, nil, 0, false
	}
	return t.W.Row(id), t.m.Row(id), t.v.Row(id), t.step[id], true
}

// size returns the number of rows the table holds.
func (t *tableOracle) size() int { return t.W.Rows }

// lazyTableOracle is an embedding table that materialises rows on demand.
// Its rows rest as float32: a first touch rounds the init draw, and Step
// widens a row, runs AdamUpdate in float64 and rounds the three results.
type lazyTableOracle struct {
	Dim  int
	rows map[int]*lazyRow
	// dirty lists the rows with a pending gradient, in the order they
	// turned dirty: all Step visits.
	dirty []*lazyRow
	init  func(out []float32)
	lr    float64
}

type lazyRow struct {
	w, m, v []float32
	grad    []float64
	step    int
	dirty   bool
}

// newLazyTableOracle returns an empty table; each first-touched row is filled with
// N(0, 0.01) values drawn from the table's one "lazytable" stream, so a row's
// init depends on the order rows are first touched.
func newLazyTableOracle(s *rng.Stream, dim int, lr float64) *lazyTableOracle {
	base := s.Derive("lazytable")
	return &lazyTableOracle{
		Dim:  dim,
		rows: map[int]*lazyRow{},
		lr:   lr,
		init: func(out []float32) {
			for i := range out {
				out[i] = float32(base.Normal(0, 0.1))
			}
		},
	}
}

// Row returns row i widened, materialising it on first use.
func (t *lazyTableOracle) Row(i int) []float64 { return wide(t.row(i).w) }

func (t *lazyTableOracle) row(i int) *lazyRow {
	r, ok := t.rows[i]
	if !ok {
		r = &lazyRow{
			w:    make([]float32, t.Dim),
			m:    make([]float32, t.Dim),
			v:    make([]float32, t.Dim),
			grad: make([]float64, t.Dim),
		}
		t.init(r.w)
		t.rows[i] = r
	}
	return r
}

// Accumulate adds g into the pending gradient for row i.
func (t *lazyTableOracle) Accumulate(i int, g []float64) {
	r := t.row(i)
	tensor.AddVec(g, r.grad)
	if !r.dirty {
		r.dirty = true
		t.dirty = append(t.dirty, r)
	}
}

// Step applies sparse Adam to the dirty rows and zeroes their gradients.
// Rows update independently, so visiting them in dirty-list order computes
// what any order would.
func (t *lazyTableOracle) Step() {
	for _, r := range t.dirty {
		r.step++
		s := tensor.NewAdamStep(t.lr, r.step, false)
		w, m, v := wide(r.w), wide(r.m), wide(r.v)
		tensor.AdamUpdate(w, m, v, r.grad, &s)
		for k := range w {
			r.w[k], r.m[k], r.v[k] = float32(w[k]), float32(m[k]), float32(v[k])
		}
		r.dirty = false
	}
	t.dirty = t.dirty[:0]
}

// state returns row id's weights and both moments widened, its step count,
// and whether the row has been materialised.
func (t *lazyTableOracle) state(id int) (w, m, v []float64, step int, ok bool) {
	r, ok := t.rows[id]
	if !ok {
		return nil, nil, nil, 0, false
	}
	return wide(r.w), wide(r.m), wide(r.v), r.step, true
}

// size returns the number of rows the table has materialised.
func (t *lazyTableOracle) size() int { return len(t.rows) }

// wide returns xs widened to float64.
func wide(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for k, x := range xs {
		out[k] = float64(x)
	}
	return out
}

// oracleTable is the surface both oracle types share.
type oracleTable interface {
	Row(i int) []float64
	Accumulate(i int, g []float64)
	Step()
	state(id int) (w, m, v []float64, step int, ok bool)
	size() int
}

// tablePair is one layout's live table, its pending gradients and the
// oracle it must match bit for bit.
type tablePair struct {
	live   *Table
	grads  *RowGrads
	oracle oracleTable
	ids    int // row ids are drawn from [0, ids) and spread by idStride
}

const (
	fuzzDim    = 5 // one four-lane kernel body plus a scalar tail
	fuzzRows   = 12
	fuzzLazyID = 40
	idStride   = 7
)

func newTablePairs() []*tablePair {
	const lr = 0.05
	dense := func() (*Table, oracleTable) {
		return NewTable(rng.New(3), fuzzRows, fuzzDim, lr), newTableOracle(rng.New(3), fuzzRows, fuzzDim, lr)
	}
	lazy := func() (*Table, oracleTable) {
		return NewLazyTable(rng.New(4), fuzzDim, lr), newLazyTableOracle(rng.New(4), fuzzDim, lr)
	}
	var pairs []*tablePair
	for _, p := range []struct {
		ids   int
		fresh func() (*Table, oracleTable)
	}{{fuzzRows, dense}, {fuzzLazyID, lazy}} {
		live, oracle := p.fresh()
		pairs = append(pairs, &tablePair{live: live, grads: NewRowGrads(fuzzDim), oracle: oracle, ids: p.ids})
	}
	return pairs
}

// id maps a fuzz byte to a row id: every id of a dense table, a spread of
// sparse ids for a lazy one.
func (p *tablePair) id(b byte) int {
	i := int(b) % p.ids
	if p.ids == fuzzLazyID {
		i *= idStride
	}
	return i
}

// fuzzGrad builds a gradient row from fuzz bytes: signed zeros, small and
// large magnitudes, so a row's first add and the kernel's tail both see them.
func fuzzGrad(data []byte) []float64 {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -3.25, 1e-9, 7e3}
	g := make([]float64, fuzzDim)
	for k := range g {
		var b byte
		if k < len(data) {
			b = data[k]
		}
		g[k] = vals[b%8] * float64(1+b/8)
	}
	return g
}

// sameBits reports whether two rows are equal bit for bit.
func sameBits(a, b []float64) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return len(a) == len(b)
}

// check compares row i's bits, then the whole state of both tables: the
// rows each holds, and every row's weights, moments and step count.
func (p *tablePair) check(t *testing.T, what string, i int) {
	t.Helper()
	if got, want := rowOf(p.live, i), p.oracle.Row(i); !sameBits(got, want) {
		t.Fatalf("%s: row %d = %v, oracle %v", what, i, got, want)
	}
	if n, want := len(p.live.steps), p.oracle.size(); n != want {
		t.Fatalf("%s: the table holds %d rows, the oracle %d", what, n, want)
	}
	for s, step := range p.live.steps {
		id := s
		if p.live.lazy() {
			id = p.live.ids[s]
		}
		w, m, v := liveState(p.live, s)
		ow, om, ov, ostep, ok := p.oracle.state(id)
		switch {
		case !ok:
			t.Fatalf("%s: the table holds row %d, the oracle does not", what, id)
		case step != ostep:
			t.Fatalf("%s: row %d has taken %d steps, oracle %d", what, id, step, ostep)
		case !sameBits(w, ow):
			t.Fatalf("%s: row %d = %v, oracle %v", what, id, w, ow)
		case !sameBits(m, om) || !sameBits(v, ov):
			t.Fatalf("%s: row %d's moments (%v, %v) differ from the oracle's (%v, %v)", what, id, m, v, om, ov)
		}
	}
}

// liveState returns the weights and both moments of tab's row in slot s,
// a lazy row's widened.
func liveState(tab *Table, s int) (w, m, v []float64) {
	if !tab.lazy() {
		return tab.denseRow(s)
	}
	r, d := wide(tab.lazyRow(s)), tab.Dim
	return r[:d], r[d : 2*d], r[2*d:]
}

// FuzzTableMatchesOracle runs a random sequence of Row, Accumulate and Step
// on the dense and the lazy layout of the live Table and on the oracle types,
// comparing the rows each holds and every row's weights, moments and step
// counter after every operation. An Accumulate reads
// its row first on both sides, as every model does before it has a gradient
// for the row; a lazy table's draw order is then the order rows are read.
func FuzzTableMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 3, 1, 3, 2, 0, 1, 9, 1, 9, 1, 3, 2, 0})
	f.Add([]byte{0, 5, 1, 5, 2, 0, 1, 5, 2, 0, 1, 7, 2, 0})
	f.Add([]byte{1, 0, 128, 1, 1, 0, 2, 2, 1, 39, 1, 39, 2, 4})
	// Lazy ids 0, then 7, 28, 49 and 70 (args 1, 4, 7, 10): the last four
	// share a home cell in the index's 8-cell table and three of them in its
	// 16-cell one, so each lookup walks a probe run.
	f.Add([]byte{1, 0, 1, 4, 1, 7, 1, 10, 1, 1, 2, 0, 0, 4, 1, 0, 2, 0, 1, 10, 2, 0, 1, 7})
	// Every lazy id in turn, so the index doubles from 8 cells to 128, then
	// steps over the grown table.
	growth := make([]byte, 0, 96)
	for b := byte(0); b < fuzzLazyID; b++ {
		growth = append(growth, 0, b)
	}
	f.Add(append(growth, 1, 39, 1, 0, 2, 0, 1, 20, 2, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs := newTablePairs()
		for pc := 0; pc+1 < len(data); pc += 2 {
			op, arg := data[pc]%3, data[pc+1]
			for _, p := range pairs {
				i := p.id(arg)
				what := fmt.Sprintf("op %d at byte %d (ids %d)", op, pc, p.ids)
				switch op {
				case 0:
					// Row alone: a lazy table's draw.
				case 1:
					end := pc + 2 + fuzzDim
					if end > len(data) {
						end = len(data)
					}
					g := fuzzGrad(data[pc+2 : end])
					rowOf(p.live, i)
					p.oracle.Row(i)
					p.grads.Add(i, g)
					p.oracle.Accumulate(i, g)
				case 2:
					p.live.Step(p.grads)
					p.oracle.Step()
				}
				p.check(t, what, i)
			}
		}
	})
}

// TestLazyTableRetainedBytesPerRow pins the heap a lazy table keeps per row:
// 200 tables of 400 rows at d = 16, each row read, accumulated and stepped
// every 32 rows, must hold at most 266 B a row after GC (260 B measured). The
// weights and both moments, whole in their page as float32, are 192 B of
// that. The rest is the slot's id (8 B) and step counter (8 B), the
// open-addressed index's cells (4 B each, at most half full, so 1024 for 400
// rows: about 10 B a row), the slack of the two growing lists, the last
// page's spare rows and the table's init stream. The oracle's figure is
// logged beside it.
func TestLazyTableRetainedBytesPerRow(t *testing.T) {
	const tables, rows, dim, every, lr = 200, 400, 16, 32, 0.01
	grad := make([]float64, dim)
	for k := range grad {
		grad[k] = 0.01 * float64(k+1)
	}
	measure := func(fill func(s *rng.Stream) any) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept := make([]any, tables)
		root := rng.New(11)
		for k := range kept {
			kept[k] = fill(root.DeriveN("table", k))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (tables * rows)
	}
	g, buf := NewRowGrads(dim), make([]float64, dim)
	live := measure(func(s *rng.Stream) any {
		tab := NewLazyTable(s, dim, lr)
		for i := 0; i < rows; i++ {
			tab.ReadRow(buf, i*idStride)
			g.Add(i*idStride, grad)
			if (i+1)%every == 0 {
				tab.Step(g)
			}
		}
		tab.Step(g)
		return tab
	})
	oracle := measure(func(s *rng.Stream) any {
		tab := newLazyTableOracle(s, dim, lr)
		for i := 0; i < rows; i++ {
			tab.Accumulate(i*idStride, grad)
			if (i+1)%every == 0 {
				tab.Step()
			}
		}
		tab.Step()
		return tab
	})
	t.Logf("retained per row at d = %d: %.0f B (the map-of-rows oracle: %.0f B)", dim, live, oracle)
	if live > 266 {
		t.Fatalf("a lazy table retains %.0f B per row at d = %d, want ≤ 266", live, dim)
	}
}
