// Package emb provides embedding tables with sparse Adam updates.
//
// Two variants exist: Table is a dense |rows|×dim matrix used by the server
// models (which see the whole catalogue), and LazyTable allocates rows on
// first touch — a PTF-FedRec client only ever scores its own trained items
// plus the server-dispersed items, so per-client memory stays proportional to
// the user's profile instead of the item catalogue.
package emb

import (
	"fmt"
	"io"
	"sort"

	"ptffedrec/internal/persist"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// AdamHyper carries the Adam hyper-parameters shared by both table kinds.
type AdamHyper struct {
	LR, Beta1, Beta2, Eps float64
}

// DefaultAdam returns the paper's optimizer settings (lr as given).
func DefaultAdam(lr float64) AdamHyper {
	return AdamHyper{LR: lr, Beta1: tensor.AdamBeta1, Beta2: tensor.AdamBeta2, Eps: 1e-8}
}

// update returns the sparse-Adam update of a row at its step-th step. It is
// the undecayed form: a table row never adds a weight-decay term.
func (hy AdamHyper) update(step int) tensor.AdamStep {
	bc1, bc2 := tensor.AdamBiasCorrections(hy.Beta1, hy.Beta2, step)
	return tensor.AdamStep{LR: hy.LR, Beta1: hy.Beta1, Beta2: hy.Beta2, Eps: hy.Eps, BC1: bc1, BC2: bc2}
}

// Table is a dense embedding table with per-row Adam state. Rows are updated
// sparsely: only rows touched by a batch pay optimizer cost.
type Table struct {
	Dim  int
	W    *tensor.Matrix
	grad map[int][]float64
	m, v *tensor.Matrix
	step map[int]int
	hy   AdamHyper
}

// NewTable allocates a rows×dim table initialized with N(0, 0.01) — the
// conventional embedding init for collaborative filtering models.
func NewTable(s *rng.Stream, rows, dim int, hy AdamHyper) *Table {
	t := &Table{
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

// Rows returns the number of rows in the table.
func (t *Table) Rows() int { return t.W.Rows }

// Row returns row i (aliases storage — do not mutate outside Accumulate/Step).
func (t *Table) Row(i int) []float64 { return t.W.Row(i) }

// Accumulate adds g into the pending gradient for row i.
func (t *Table) Accumulate(i int, g []float64) {
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
func (t *Table) Step() {
	for i, g := range t.grad {
		t.step[i]++
		s := t.hy.update(t.step[i])
		tensor.AdamUpdate(t.W.Row(i), t.m.Row(i), t.v.Row(i), g, &s)
		delete(t.grad, i)
	}
}

// Snapshot writes the table's weights (not optimizer state) to w.
func (t *Table) Snapshot(w io.Writer) error {
	return persist.WriteFloat64s(w, t.W.Data)
}

// Restore reads weights previously written by Snapshot into the table. The
// table's shape must match; optimizer state is untouched (pair with
// RestoreMoments for exact checkpoint-resume).
func (t *Table) Restore(r io.Reader) error {
	return persist.ReadFloat64sInto(r, t.W.Data)
}

// SnapshotMoments writes the table's sparse-Adam state — per-row step
// counters and both moment matrices — so a restored table resumes training
// exactly where the snapshot left off. Call between optimizer steps (no
// pending gradients).
func (t *Table) SnapshotMoments(w io.Writer) error {
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
func (t *Table) RestoreMoments(r io.Reader) error {
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

// PendingGrad returns a copy of row i's uncommitted gradient, or nil if the
// row has no pending update. Intended for tests and debugging.
func (t *Table) PendingGrad(i int) []float64 {
	g, ok := t.grad[i]
	if !ok {
		return nil
	}
	out := make([]float64, len(g))
	copy(out, g)
	return out
}

// LazyTable is an embedding table that materialises rows on demand.
type LazyTable struct {
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

// NewLazyTable returns an empty table; each first-touched row is filled with
// N(0, 0.01) values drawn from the table's one "lazytable" stream, so a row's
// init depends on the order rows are first touched.
func NewLazyTable(s *rng.Stream, dim int, hy AdamHyper) *LazyTable {
	base := s.Derive("lazytable")
	return &LazyTable{
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
func (t *LazyTable) Row(i int) []float64 { return t.row(i).w }

// Len returns the number of materialised rows.
func (t *LazyTable) Len() int { return len(t.rows) }

func (t *LazyTable) row(i int) *lazyRow {
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
func (t *LazyTable) Accumulate(i int, g []float64) {
	r := t.row(i)
	tensor.AddVec(g, r.grad)
	if !r.dirty {
		r.dirty = true
		t.dirty = append(t.dirty, r)
	}
}

// Snapshot writes the materialised rows (ids + weights) to w.
func (t *LazyTable) Snapshot(w io.Writer) error {
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
func (t *LazyTable) Restore(r io.Reader) error {
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
func (t *LazyTable) SnapshotMoments(w io.Writer) error {
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
func (t *LazyTable) RestoreMoments(r io.Reader) error {
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
func (t *LazyTable) Step() {
	for _, r := range t.dirty {
		r.step++
		s := t.hy.update(r.step)
		tensor.AdamUpdate(r.w, r.m, r.v, r.grad, &s)
		r.dirty = false
	}
	t.dirty = t.dirty[:0]
}
