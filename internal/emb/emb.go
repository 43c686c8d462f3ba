// Package emb provides embedding tables with sparse Adam updates.
//
// One Table type serves both layouts. A dense table (NewTable) holds a row
// for every id, drawn at construction: the server models see the whole
// catalogue. A lazy table (NewLazyTable) starts empty and adds a row the
// first time an id is touched: a PTF-FedRec client only ever scores its own
// trained items plus the server-dispersed items, so per-client memory stays
// proportional to the user's profile instead of the item catalogue.
//
// Either way the weights, both Adam moments and the step counters live in
// slot-addressed slabs with no per-row pointers: one page for a dense table,
// whose slot is the row id, and pages that double up to a fixed size for a
// lazy table, whose slot is the order rows were first touched. A dense page
// keeps the weights as one block, the matrix W the batched kernels read; a
// lazy page keeps each row whole, weights then both moments, so one row's
// Adam step reads one run of memory. A lazy table finds a row's slot, and a
// RowGrads a row's gradient, through an open-addressed index over its
// first-touch list of ids instead of a Go map. Gradients are collected
// outside the table, in a RowGrads the caller owns, which Step consumes.
package emb

import (
	"fmt"
	"io"
	"math/bits"
	"slices"

	"ptffedrec/internal/persist"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// Table is an embedding table with per-row Adam state. Rows are updated
// sparsely: only rows with a gradient pay optimizer cost.
type Table struct {
	Dim int
	// W is a dense table's weights, row i at W.Row(i); nil for a lazy table.
	W *tensor.Matrix
	// pages hold the rows by slot. A dense table is one page of three
	// rows·Dim blocks: W, then the first Adam moments, then the second. A
	// lazy table's pages double from one row up to lazyPageRows, so a row
	// never moves, and each holds its rows whole, 3·Dim floats apiece: the
	// weights, then the first moment, then the second.
	pages [][]float64
	// steps is each slot's Adam step count.
	steps []int
	// ids lists a lazy table's row ids by slot, and index finds an id's slot
	// in it; both stay empty for a dense table. init is the stream a lazy
	// table draws new rows from.
	ids   []int
	index index
	init  *rng.Stream
	lr    float64 // Adam's step size
}

// lazyPageShift caps a lazy table's pages at lazyPageRows rows: past the
// first 63 rows, which sit in pages of 1, 2, 4, …, 32, every page is full
// size. A table of n rows then holds at most max(n, 63+64) − n spare.
const (
	lazyPageShift = 6
	lazyPageRows  = 1 << lazyPageShift
)

// lazyPage returns the page and the row within it of lazy slot s, and the
// page's row count.
func lazyPage(s int) (k, off, rows int) {
	if s < lazyPageRows-1 {
		k = bits.Len(uint(s+1)) - 1
		return k, s + 1 - 1<<k, 1 << k
	}
	s -= lazyPageRows - 1
	return lazyPageShift + s>>lazyPageShift, s & (lazyPageRows - 1), lazyPageRows
}

// NewTable allocates a dense rows×dim table initialized with N(0, 0.01) — the
// conventional embedding init for collaborative filtering models.
func NewTable(s *rng.Stream, rows, dim int, lr float64) *Table {
	page := make([]float64, 3*rows*dim)
	t := &Table{
		Dim:   dim,
		W:     tensor.FromSlice(rows, dim, page[:rows*dim]),
		pages: [][]float64{page},
		steps: make([]int, rows),
		lr:    lr,
	}
	for i := range t.W.Data {
		t.W.Data[i] = s.Normal(0, 0.1)
	}
	return t
}

// NewLazyTable returns an empty lazy table; each first-touched row is filled
// with N(0, 0.01) values drawn from the table's one "lazytable" stream, so a
// row's init depends on the order rows are first touched.
func NewLazyTable(s *rng.Stream, dim int, lr float64) *Table {
	return &Table{Dim: dim, init: s.Derive("lazytable"), lr: lr}
}

// Row returns row i's weights, aliasing the table's storage; only Step and
// Restore write them. A lazy table adds the row on first touch. Rows never
// move, so the slice stays the row's for the table's life.
func (t *Table) Row(i int) []float64 {
	w, _, _ := t.row(t.slot(i))
	return w
}

// lazy reports whether the table adds rows on first touch.
func (t *Table) lazy() bool { return t.W == nil }

// row returns the weights and both Adam moments of the row in slot s.
func (t *Table) row(s int) (w, m, v []float64) {
	d := t.Dim
	if !t.lazy() {
		p, n, o := t.pages[0], len(t.W.Data), s*d
		return p[o : o+d], p[n+o : n+o+d], p[2*n+o : 2*n+o+d]
	}
	k, off, _ := lazyPage(s)
	r := t.pages[k][3*d*off : 3*d*(off+1)]
	return r[:d], r[d : 2*d], r[2*d:]
}

// denseMoments returns a dense table's two moment blocks.
func (t *Table) denseMoments() (m, v []float64) {
	n := len(t.W.Data)
	return t.pages[0][n : 2*n], t.pages[0][2*n:]
}

// slot returns row i's slot, adding the row to a lazy table on first touch.
func (t *Table) slot(i int) int {
	if !t.lazy() {
		return i
	}
	s, added := t.index.lookup(t.ids, i)
	if added {
		t.ids = append(t.ids, i)
		t.steps = append(t.steps, 0)
		if _, off, n := lazyPage(s); off == 0 {
			t.pages = append(t.pages, make([]float64, 3*n*t.Dim))
		}
		w, _, _ := t.row(s)
		for k := range w {
			w[k] = t.init.Normal(0, 0.1)
		}
	}
	return s
}

// Step applies sparse Adam to every row with a gradient in g, then empties
// g. Each row keeps its own step counter for bias correction and takes the
// undecayed form, matching the sparse-Adam behaviour of mainstream
// frameworks. Rows update independently, so g's order cannot change a value.
func (t *Table) Step(g *RowGrads) {
	for k, i := range g.ids {
		s := t.slot(i)
		t.steps[s]++
		up := tensor.NewAdamStep(t.lr, t.steps[s], false)
		w, m, v := t.row(s)
		tensor.AdamUpdate(w, m, v, g.slab[k*g.dim:(k+1)*g.dim], &up)
	}
	g.Reset()
}

// sortedIDs returns a lazy table's row ids in ascending order.
func (t *Table) sortedIDs() []int { return slices.Sorted(slices.Values(t.ids)) }

// Snapshot writes the table's weights (not optimizer state) to w: a dense
// table's as one block, a lazy table's as its ids, ascending, then each row.
func (t *Table) Snapshot(w io.Writer) error {
	if !t.lazy() {
		return persist.WriteFloat64s(w, t.W.Data)
	}
	ids := t.sortedIDs()
	if err := persist.WriteInts(w, ids); err != nil {
		return err
	}
	for _, id := range ids {
		if err := persist.WriteFloat64s(w, t.Row(id)); err != nil {
			return err
		}
	}
	return nil
}

// Restore reads weights previously written by Snapshot into the table, adding
// a lazy table's rows as needed. A dense table's shape must match; optimizer
// state is untouched (pair with RestoreMoments for exact checkpoint-resume).
func (t *Table) Restore(r io.Reader) error {
	if !t.lazy() {
		return persist.ReadFloat64sInto(r, t.W.Data)
	}
	ids, err := persist.ReadInts(r)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := persist.ReadFloat64sInto(r, t.Row(id)); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotMoments writes the table's sparse-Adam state — ids, their step
// counters and both moments — so a restored table resumes training exactly
// where the snapshot left off. A dense table lists the rows that have
// stepped and writes each moment as one block; a lazy table lists every row,
// ascending, and writes each row's two moments in turn.
func (t *Table) SnapshotMoments(w io.Writer) error {
	var ids []int
	if !t.lazy() {
		for i, n := range t.steps {
			if n > 0 {
				ids = append(ids, i)
			}
		}
	} else {
		ids = t.sortedIDs()
	}
	steps := make([]int, len(ids))
	for k, id := range ids {
		steps[k] = t.steps[t.slot(id)]
	}
	if err := persist.WriteInts(w, ids); err != nil {
		return err
	}
	if err := persist.WriteInts(w, steps); err != nil {
		return err
	}
	if !t.lazy() {
		m, v := t.denseMoments()
		if err := persist.WriteFloat64s(w, m); err != nil {
			return err
		}
		return persist.WriteFloat64s(w, v)
	}
	for _, id := range ids {
		_, m, v := t.row(t.slot(id))
		if err := persist.WriteFloat64s(w, m); err != nil {
			return err
		}
		if err := persist.WriteFloat64s(w, v); err != nil {
			return err
		}
	}
	return nil
}

// RestoreMoments reads optimizer state previously written by
// SnapshotMoments, adding a lazy table's rows as needed.
func (t *Table) RestoreMoments(r io.Reader) error {
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
	if !t.lazy() {
		clear(t.steps)
		for k, id := range ids {
			if id < 0 || id >= len(t.steps) {
				return fmt.Errorf("emb: moment snapshot names row %d of a %d-row table", id, len(t.steps))
			}
			t.steps[id] = steps[k]
		}
		m, v := t.denseMoments()
		if err := persist.ReadFloat64sInto(r, m); err != nil {
			return err
		}
		return persist.ReadFloat64sInto(r, v)
	}
	for k, id := range ids {
		s := t.slot(id)
		t.steps[s] = steps[k]
		_, m, v := t.row(s)
		if err := persist.ReadFloat64sInto(r, m); err != nil {
			return err
		}
		if err := persist.ReadFloat64sInto(r, v); err != nil {
			return err
		}
	}
	return nil
}

// RowGrads collects sparse per-row gradient vectors: one training shard's,
// or a batch's pending set that Table.Step consumes. Rows keep their
// first-touch order, so merges and steps never depend on the index's layout.
// The vectors live back to back in one slab, so a reset set refills without
// allocating once the slab and the index have reached the batch's working
// size.
type RowGrads struct {
	dim   int
	ids   []int // touched rows, first-touch order
	index index // row → position in ids (and in slab, ×dim)
	slab  []float64
}

// NewRowGrads returns an empty set of dim-wide gradient rows.
func NewRowGrads(dim int) *RowGrads {
	return &RowGrads{dim: dim}
}

// Reset forgets every row, keeping the storage. It costs the rows touched,
// not the index's size.
func (a *RowGrads) Reset() {
	a.index.reset(a.ids)
	a.ids = a.ids[:0]
	a.slab = a.slab[:0]
}

// Row returns row i's gradient, zeroed on first touch. The slice is valid
// until the next first touch.
func (a *RowGrads) Row(i int) []float64 {
	k, added := a.index.lookup(a.ids, i)
	if added {
		a.ids = append(a.ids, i)
		a.slab = slices.Grow(a.slab, a.dim)[:(k+1)*a.dim]
		clear(a.slab[k*a.dim:])
	}
	return a.slab[k*a.dim : (k+1)*a.dim]
}

// Add accumulates g into row i's gradient.
func (a *RowGrads) Add(i int, g []float64) {
	tensor.AddVec(g, a.Row(i))
}

// Axpy accumulates s*x into row i's gradient.
func (a *RowGrads) Axpy(i int, s float64, x []float64) {
	tensor.Axpy(s, x, a.Row(i))
}

// AddTo accumulates every row of a into dst, in a's first-touch order.
func (a *RowGrads) AddTo(dst *RowGrads) {
	for k, i := range a.ids {
		dst.Add(i, a.slab[k*a.dim:(k+1)*a.dim])
	}
}

// AddToRows adds every row of a into the matching row of m.
func (a *RowGrads) AddToRows(m *tensor.Matrix) {
	for k, i := range a.ids {
		tensor.AddVec(a.slab[k*a.dim:(k+1)*a.dim], m.Row(i))
	}
}
