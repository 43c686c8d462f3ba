package emb

// The two table types the slab-backed Table replaced, kept verbatim as its
// reference (renamed tableOracle and lazyTableOracle so they sit beside it):
// a dense table whose pending gradients and step counters lived in maps, and
// a lazy table holding each materialised row as four slices behind a map
// entry. FuzzTableMatchesOracle drives both layouts through the same random
// sequences on the live type and on these, and
// TestLazyTableRetainedBytesPerRow measures what each keeps per row.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"testing"

	"ptffedrec/internal/persist"
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
	hy   AdamHyper
}

// newTableOracle allocates a rows×dim table initialized with N(0, 0.01) — the
// conventional embedding init for collaborative filtering models.
func newTableOracle(s *rng.Stream, rows, dim int, hy AdamHyper) *tableOracle {
	t := &tableOracle{
		Dim:  dim,
		W:    tensor.New(rows, dim),
		grad: map[int][]float64{},
		m:    tensor.New(rows, dim),
		v:    tensor.New(rows, dim),
		step: map[int]int{},
		hy:   hy,
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
		s := t.hy.update(t.step[i])
		tensor.AdamUpdate(t.W.Row(i), t.m.Row(i), t.v.Row(i), g, &s)
		delete(t.grad, i)
	}
}

// Snapshot writes the table's weights (not optimizer state) to w.
func (t *tableOracle) Snapshot(w io.Writer) error {
	return persist.WriteFloat64s(w, t.W.Data)
}

// Restore reads weights previously written by Snapshot into the table. The
// table's shape must match; optimizer state is untouched (pair with
// RestoreMoments for exact checkpoint-resume).
func (t *tableOracle) Restore(r io.Reader) error {
	return persist.ReadFloat64sInto(r, t.W.Data)
}

// SnapshotMoments writes the table's sparse-Adam state — per-row step
// counters and both moment matrices — so a restored table resumes training
// exactly where the snapshot left off. Call between optimizer steps (no
// pending gradients).
func (t *tableOracle) SnapshotMoments(w io.Writer) error {
	ids := make([]int, 0, len(t.step))
	for id := range t.step {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	counts := make([]int, len(ids))
	for i, id := range ids {
		counts[i] = t.step[id]
	}
	if err := persist.WriteInts(w, ids); err != nil {
		return err
	}
	if err := persist.WriteInts(w, counts); err != nil {
		return err
	}
	if err := persist.WriteFloat64s(w, t.m.Data); err != nil {
		return err
	}
	return persist.WriteFloat64s(w, t.v.Data)
}

// RestoreMoments reads optimizer state previously written by SnapshotMoments.
func (t *tableOracle) RestoreMoments(r io.Reader) error {
	ids, err := persist.ReadInts(r)
	if err != nil {
		return err
	}
	counts, err := persist.ReadInts(r)
	if err != nil {
		return err
	}
	if len(ids) != len(counts) {
		return fmt.Errorf("emb: moment snapshot has %d ids, %d counts", len(ids), len(counts))
	}
	t.step = make(map[int]int, len(ids))
	for i, id := range ids {
		t.step[id] = counts[i]
	}
	if err := persist.ReadFloat64sInto(r, t.m.Data); err != nil {
		return err
	}
	return persist.ReadFloat64sInto(r, t.v.Data)
}

// lazyTableOracle is an embedding table that materialises rows on demand.
type lazyTableOracle struct {
	Dim  int
	rows map[int]*lazyRow
	// dirty lists the rows with a pending gradient, in the order they
	// turned dirty: all Step visits.
	dirty []*lazyRow
	init  func(out []float64)
	hy    AdamHyper
}

type lazyRow struct {
	w, m, v, grad []float64
	step          int
	dirty         bool
}

// newLazyTableOracle returns an empty table; each first-touched row is filled with
// N(0, 0.01) values drawn from the table's one "lazytable" stream, so a row's
// init depends on the order rows are first touched.
func newLazyTableOracle(s *rng.Stream, dim int, hy AdamHyper) *lazyTableOracle {
	base := s.Derive("lazytable")
	return &lazyTableOracle{
		Dim:  dim,
		rows: map[int]*lazyRow{},
		hy:   hy,
		init: func(out []float64) {
			for i := range out {
				out[i] = base.Normal(0, 0.1)
			}
		},
	}
}

// Row returns row i, materialising it on first use.
func (t *lazyTableOracle) Row(i int) []float64 { return t.row(i).w }

func (t *lazyTableOracle) row(i int) *lazyRow {
	r, ok := t.rows[i]
	if !ok {
		r = &lazyRow{
			w:    make([]float64, t.Dim),
			m:    make([]float64, t.Dim),
			v:    make([]float64, t.Dim),
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

// Snapshot writes the materialised rows (ids + weights) to w.
func (t *lazyTableOracle) Snapshot(w io.Writer) error {
	ids := make([]int, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if err := persist.WriteInts(w, ids); err != nil {
		return err
	}
	for _, id := range ids {
		if err := persist.WriteFloat64s(w, t.rows[id].w); err != nil {
			return err
		}
	}
	return nil
}

// Restore reads rows previously written by Snapshot, materialising them as
// needed. Optimizer state is untouched (pair with RestoreMoments for exact
// checkpoint-resume).
func (t *lazyTableOracle) Restore(r io.Reader) error {
	ids, err := persist.ReadInts(r)
	if err != nil {
		return err
	}
	for _, id := range ids {
		row := t.row(id)
		if err := persist.ReadFloat64sInto(r, row.w); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotMoments writes every materialised row's sparse-Adam state (step
// counter and both moment vectors) in the same sorted-id order Snapshot uses.
// Call between optimizer steps (no pending gradients).
func (t *lazyTableOracle) SnapshotMoments(w io.Writer) error {
	ids := make([]int, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	steps := make([]int, len(ids))
	for i, id := range ids {
		steps[i] = t.rows[id].step
	}
	if err := persist.WriteInts(w, ids); err != nil {
		return err
	}
	if err := persist.WriteInts(w, steps); err != nil {
		return err
	}
	for _, id := range ids {
		if err := persist.WriteFloat64s(w, t.rows[id].m); err != nil {
			return err
		}
		if err := persist.WriteFloat64s(w, t.rows[id].v); err != nil {
			return err
		}
	}
	return nil
}

// RestoreMoments reads optimizer state previously written by SnapshotMoments,
// materialising rows as needed.
func (t *lazyTableOracle) RestoreMoments(r io.Reader) error {
	ids, err := persist.ReadInts(r)
	if err != nil {
		return err
	}
	steps, err := persist.ReadInts(r)
	if err != nil {
		return err
	}
	if len(ids) != len(steps) {
		return fmt.Errorf("emb: moment snapshot has %d ids, %d steps", len(ids), len(steps))
	}
	for i, id := range ids {
		row := t.row(id)
		row.step = steps[i]
		if err := persist.ReadFloat64sInto(r, row.m); err != nil {
			return err
		}
		if err := persist.ReadFloat64sInto(r, row.v); err != nil {
			return err
		}
	}
	return nil
}

// Step applies sparse Adam to the dirty rows and zeroes their gradients.
// Rows update independently, so visiting them in dirty-list order computes
// what any order would.
func (t *lazyTableOracle) Step() {
	for _, r := range t.dirty {
		r.step++
		s := t.hy.update(r.step)
		tensor.AdamUpdate(r.w, r.m, r.v, r.grad, &s)
		r.dirty = false
	}
	t.dirty = t.dirty[:0]
}

// oracleTable is the surface both oracle types share.
type oracleTable interface {
	Row(i int) []float64
	Accumulate(i int, g []float64)
	Step()
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
	SnapshotMoments(w io.Writer) error
	RestoreMoments(r io.Reader) error
}

// tablePair is one layout's live table, its pending gradients and the
// oracle it must match bit for bit.
type tablePair struct {
	live   *Table
	grads  *RowGrads
	oracle oracleTable
	ids    int // row ids are drawn from [0, ids) and spread by idStride
	fresh  func() (*Table, oracleTable)
}

const (
	fuzzDim    = 5 // one four-lane kernel body plus a scalar tail
	fuzzRows   = 12
	fuzzLazyID = 40
	idStride   = 7
)

func newTablePairs() []*tablePair {
	hy := DefaultAdam(0.05)
	dense := func() (*Table, oracleTable) {
		return NewTable(rng.New(3), fuzzRows, fuzzDim, hy), newTableOracle(rng.New(3), fuzzRows, fuzzDim, hy)
	}
	lazy := func() (*Table, oracleTable) {
		return NewLazyTable(rng.New(4), fuzzDim, hy), newLazyTableOracle(rng.New(4), fuzzDim, hy)
	}
	var pairs []*tablePair
	for _, p := range []struct {
		ids   int
		fresh func() (*Table, oracleTable)
	}{{fuzzRows, dense}, {fuzzLazyID, lazy}} {
		live, oracle := p.fresh()
		pairs = append(pairs, &tablePair{live: live, grads: NewRowGrads(fuzzDim), oracle: oracle, ids: p.ids, fresh: p.fresh})
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

// snapshotBoth returns the weight snapshot and the moment snapshot of t.
func snapshotBoth(t interface {
	Snapshot(w io.Writer) error
	SnapshotMoments(w io.Writer) error
}) ([]byte, []byte, error) {
	var w, m bytes.Buffer
	if err := t.Snapshot(&w); err != nil {
		return nil, nil, err
	}
	if err := t.SnapshotMoments(&m); err != nil {
		return nil, nil, err
	}
	return w.Bytes(), m.Bytes(), nil
}

// check compares row i's bits, then both snapshots' bytes.
func (p *tablePair) check(t *testing.T, what string, i int) {
	t.Helper()
	got, want := p.live.Row(i), p.oracle.Row(i)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: row %d = %v, oracle %v", what, i, got, want)
		}
	}
	gw, gm, err := snapshotBoth(p.live)
	if err != nil {
		t.Fatal(err)
	}
	ww, wm, err := snapshotBoth(p.oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gw, ww) {
		t.Fatalf("%s: weight snapshot differs from the oracle's", what)
	}
	if !bytes.Equal(gm, wm) {
		t.Fatalf("%s: moment snapshot (step counters, moments) differs from the oracle's", what)
	}
}

// restore replaces the pair's tables with fresh ones loaded from the current
// state: weights only, or weights and moments. Pending gradients are dropped
// on both sides, as a checkpoint never carries them.
func (p *tablePair) restore(t *testing.T, moments bool) {
	t.Helper()
	w, m, err := snapshotBoth(p.live)
	if err != nil {
		t.Fatal(err)
	}
	live, oracle := p.fresh()
	for _, tab := range []interface {
		Restore(r io.Reader) error
		RestoreMoments(r io.Reader) error
	}{live, oracle} {
		if err := tab.Restore(bytes.NewReader(w)); err != nil {
			t.Fatal(err)
		}
		if moments {
			if err := tab.RestoreMoments(bytes.NewReader(m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.live, p.oracle = live, oracle
	p.grads.Reset()
}

// FuzzTableMatchesOracle runs a random sequence of Row, Accumulate, Step,
// Snapshot and Restore (with and without the moments) on the dense and the
// lazy layout of the live Table and on the oracle types, comparing row bits,
// step counters and snapshot bytes after every operation. An Accumulate reads
// its row first on both sides, as every model does before it has a gradient
// for the row; a lazy table's draw order is then the order rows are read.
func FuzzTableMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 3, 1, 3, 2, 0, 1, 9, 1, 9, 1, 3, 2, 0, 3, 0})
	f.Add([]byte{0, 5, 1, 5, 17, 200, 3, 1, 2, 0, 4, 0, 1, 5, 2, 0, 5, 0, 1, 7, 2, 0})
	f.Add([]byte{1, 0, 128, 1, 1, 0, 64, 2, 2, 2, 1, 39, 9, 2, 4, 4, 1, 39, 2, 4})
	// Lazy ids 0, then 7, 28, 49 and 70 (args 1, 4, 7, 10): the last four
	// share a home cell in the index's 8-cell table and three of them in its
	// 16-cell one, so each lookup walks a probe run; restores rebuild it.
	f.Add([]byte{1, 0, 1, 4, 1, 7, 1, 10, 1, 1, 2, 0, 0, 4, 1, 0, 2, 0, 4, 0, 1, 10, 2, 0, 5, 0, 1, 7, 3, 0})
	// Every lazy id in turn, so the index doubles from 8 cells to 128, then
	// a step and both restores over the grown table.
	growth := make([]byte, 0, 96)
	for b := byte(0); b < fuzzLazyID; b++ {
		growth = append(growth, 0, b)
	}
	f.Add(append(growth, 1, 39, 1, 0, 2, 0, 4, 0, 1, 20, 2, 0, 5, 0, 3, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs := newTablePairs()
		for pc := 0; pc+1 < len(data); pc += 2 {
			op, arg := data[pc]%6, data[pc+1]
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
					p.live.Row(i)
					p.oracle.Row(i)
					p.grads.Add(i, g)
					p.oracle.Accumulate(i, g)
				case 2:
					p.live.Step(p.grads)
					p.oracle.Step()
				case 3:
					// Snapshot: check compares both snapshots below.
				case 4:
					p.restore(t, true)
				case 5:
					p.restore(t, false)
				}
				p.check(t, what, i)
			}
		}
	})
}

// TestLazyTableRetainedBytesPerRow pins the heap a lazy table keeps per row:
// 200 tables of 400 rows at d = 16, each row read, accumulated and stepped
// every 32 rows, must hold at most 480 B a row after GC (474 B measured). The
// weights and both moments, whole in their page, are 384 B of that. The rest
// is the slot's id (8 B) and step counter (8 B), the open-addressed index's
// cells (4 B each, at most half full, so 1024 for 400 rows: about 10 B a
// row), the slack of the two growing lists, the last page's spare rows and
// the table's init stream. The oracle's figure is logged beside it.
func TestLazyTableRetainedBytesPerRow(t *testing.T) {
	const tables, rows, dim, every = 200, 400, 16, 32
	hy := DefaultAdam(0.01)
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
	g := NewRowGrads(dim)
	live := measure(func(s *rng.Stream) any {
		tab := NewLazyTable(s, dim, hy)
		for i := 0; i < rows; i++ {
			tab.Row(i * idStride)
			g.Add(i*idStride, grad)
			if (i+1)%every == 0 {
				tab.Step(g)
			}
		}
		tab.Step(g)
		return tab
	})
	oracle := measure(func(s *rng.Stream) any {
		tab := newLazyTableOracle(s, dim, hy)
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
	if live > 480 {
		t.Fatalf("a lazy table retains %.0f B per row at d = %d, want ≤ 480", live, dim)
	}
}
