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
// slot-addressed slabs with no per-row pointers: one slab for a dense table,
// whose slot is the row id, and pages that double up to a fixed size for a
// lazy table, whose slot is the order rows were first touched. A dense slab
// keeps the weights as one block, the matrix W the batched kernels read; a
// lazy page keeps each row whole, weights then both moments, so one row's
// Adam step reads one run of memory. A lazy table finds a row's slot, and a
// RowGrads a row's gradient, through an open-addressed index over its
// first-touch list of ids instead of a Go map. Gradients are collected
// outside the table, in a RowGrads the caller owns, which Step consumes.
//
// A dense table is float64 throughout. A lazy table, the one every client
// model trains on its device, keeps its rows as float32 at rest, 12·Dim bytes
// a row, and computes in float64: a read widens a row exactly, and a value is
// rounded to nearest in exactly two places, when a first touch stores the
// init draw and when Step stores the weights and moments AdamUpdate computed
// from the widened row. So a stepped lazy row holds exactly
// float32(AdamUpdate(float64(row))).
package emb

import (
	"math/bits"
	"slices"

	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// Table is an embedding table with per-row Adam state. Rows are updated
// sparsely: only rows with a gradient pay optimizer cost. A dense table's
// rows are float64 and can be aliased; a lazy table's rest as float32 and
// are read by widening into a caller's buffer.
type Table struct {
	Dim int
	// W is a dense table's weights, row i at W.Row(i); nil for a lazy table.
	W *tensor.Matrix
	// dense is a dense table's one slab of three rows·Dim blocks: W, then
	// the first Adam moments, then the second; nil for a lazy table.
	dense []float64
	// pages hold a lazy table's rows by slot. They double from one row up to
	// lazyPageRows, so a row never moves, and each holds its rows whole,
	// 3·Dim float32 values apiece: the weights, then the first moment, then
	// the second.
	pages [][]float32
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
	slab := make([]float64, 3*rows*dim)
	t := &Table{
		Dim:   dim,
		W:     tensor.FromSlice(rows, dim, slab[:rows*dim]),
		dense: slab,
		steps: make([]int, rows),
		lr:    lr,
	}
	for i := range t.W.Data {
		t.W.Data[i] = s.Normal(0, 0.1)
	}
	return t
}

// NewLazyTable returns an empty lazy table; each first-touched row is filled
// with N(0, 0.01) values drawn from the table's one "lazytable" stream and
// rounded to float32, so a row's init depends on the order rows are first
// touched.
func NewLazyTable(s *rng.Stream, dim int, lr float64) *Table {
	return &Table{Dim: dim, init: s.Derive("lazytable"), lr: lr}
}

// ReadRow writes row i's weights into dst, which must hold Dim values: a
// dense table's copied, a lazy table's widened exactly. It is the one way to
// read a row of either layout, since a lazy table's float32 row cannot be
// aliased; a dense table's batched kernels read W directly. A lazy table
// adds the row on first touch.
func (t *Table) ReadRow(dst []float64, i int) {
	if !t.lazy() {
		copy(dst[:t.Dim], t.W.Row(i))
		return
	}
	widen(dst[:t.Dim], t.lazyRow(t.slot(i))[:t.Dim])
}

// lazy reports whether the table adds rows on first touch.
func (t *Table) lazy() bool { return t.W == nil }

// denseRow returns the weights and both Adam moments of a dense table's row
// s.
func (t *Table) denseRow(s int) (w, m, v []float64) {
	d, n := t.Dim, len(t.W.Data)
	o := s * d
	return t.dense[o : o+d], t.dense[n+o : n+o+d], t.dense[2*n+o : 2*n+o+d]
}

// lazyRow returns a lazy table's row in slot s whole: its weights, then both
// Adam moments, Dim float32 values each.
func (t *Table) lazyRow(s int) []float32 {
	k, off, _ := lazyPage(s)
	return t.pages[k][3*t.Dim*off : 3*t.Dim*(off+1)]
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
			t.pages = append(t.pages, make([]float32, 3*n*t.Dim))
		}
		w := t.lazyRow(s)[:t.Dim]
		for k := range w {
			w[k] = float32(t.init.Normal(0, 0.1))
		}
	}
	return s
}

// Step applies sparse Adam to every row with a gradient in g, then empties
// g. Each row keeps its own step counter for bias correction and takes the
// undecayed form, matching the sparse-Adam behaviour of mainstream
// frameworks. Rows update independently, so g's order cannot change a value.
// A lazy row is widened into g's scratch, stepped there, and rounded back.
func (t *Table) Step(g *RowGrads) {
	d := t.Dim
	for k, i := range g.ids {
		s := t.slot(i)
		t.steps[s]++
		up := tensor.NewAdamStep(t.lr, t.steps[s], false)
		grad := g.slab[k*d : (k+1)*d]
		if !t.lazy() {
			w, m, v := t.denseRow(s)
			tensor.AdamUpdate(w, m, v, grad, &up)
			continue
		}
		row, x := t.lazyRow(s), g.wide[:3*d]
		widen(x, row)
		tensor.AdamUpdate(x[:d], x[d:2*d], x[2*d:], grad, &up)
		narrow(row, x)
	}
	g.Reset()
}

// widen sets dst to src's values, exactly.
func widen(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for k, x := range src {
		dst[k] = float64(x)
	}
}

// narrow sets dst to src's values rounded to nearest float32.
func narrow(dst []float32, src []float64) {
	dst = dst[:len(src)]
	for k, x := range src {
		dst[k] = float32(x)
	}
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
	// wide is the 3·dim float64 scratch a lazy table's Step widens each row
	// into, so the per-client tables carry none.
	wide []float64
}

// NewRowGrads returns an empty set of dim-wide gradient rows.
func NewRowGrads(dim int) *RowGrads {
	return &RowGrads{dim: dim, wide: make([]float64, 3*dim)}
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
