package models

import (
	"fmt"
	"io"
	"math"
	"slices"

	"ptffedrec/internal/nn"
	"ptffedrec/internal/persist"
	"ptffedrec/internal/tensor"
)

// snapshotMagic opens every snapshot: format V2, the parameters followed by
// the Adam moment state (embedding-table sparse-Adam rows and dense-parameter
// moments), so a restored model resumes training bit-for-bit where the
// snapshot left off. The weights-only V1 format is no longer read.
const snapshotMagic = "PTFREC-MODEL-V2"

// Snapshotter is implemented by models that can persist their state.
// Snapshots carry the parameters plus the optimizer's moment estimates, so
// long federated runs can checkpoint-resume exactly.
// Snapshot between optimizer steps — pending gradients are not persisted.
type Snapshotter interface {
	// Snapshot writes the model's parameters and optimizer state to w.
	Snapshot(w io.Writer) error
	// Restore loads a snapshot previously written by Snapshot into this
	// model. The model must have been constructed with the same Config.
	Restore(r io.Reader) error
}

func writeHeader(w io.Writer, kind Kind) error {
	if err := persist.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	return persist.WriteString(w, string(kind))
}

// readHeader validates the magic and model kind.
func readHeader(r io.Reader, kind Kind) error {
	magic, err := persist.ReadString(r)
	if err != nil {
		return fmt.Errorf("models: bad snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("models: bad snapshot header: expected %q, got %q", snapshotMagic, magic)
	}
	if err := persist.ExpectString(r, string(kind)); err != nil {
		return fmt.Errorf("models: snapshot model kind mismatch: %w", err)
	}
	return nil
}

// Snapshot implements Snapshotter.
func (m *MF) Snapshot(w io.Writer) error {
	if err := writeHeader(w, KindMF); err != nil {
		return err
	}
	if err := m.users.Snapshot(w); err != nil {
		return err
	}
	if err := m.items.Snapshot(w); err != nil {
		return err
	}
	if err := m.users.SnapshotMoments(w); err != nil {
		return err
	}
	return m.items.SnapshotMoments(w)
}

// Restore implements Snapshotter.
func (m *MF) Restore(r io.Reader) error {
	if err := readHeader(r, KindMF); err != nil {
		return err
	}
	if err := m.users.Restore(r); err != nil {
		return err
	}
	if err := m.items.Restore(r); err != nil {
		return err
	}
	if err := m.users.RestoreMoments(r); err != nil {
		return err
	}
	return m.items.RestoreMoments(r)
}

// Snapshot implements Snapshotter.
func (m *NeuMF) Snapshot(w io.Writer) error {
	if err := writeHeader(w, KindNeuMF); err != nil {
		return err
	}
	if err := m.users.Snapshot(w); err != nil {
		return err
	}
	if err := m.items.Snapshot(w); err != nil {
		return err
	}
	for _, p := range m.params {
		if err := persist.WriteFloat64s(w, p.W.Data); err != nil {
			return err
		}
	}
	if err := m.users.SnapshotMoments(w); err != nil {
		return err
	}
	if err := m.items.SnapshotMoments(w); err != nil {
		return err
	}
	return nn.SnapshotMoments(w, m.params)
}

// Restore implements Snapshotter.
func (m *NeuMF) Restore(r io.Reader) error {
	if err := readHeader(r, KindNeuMF); err != nil {
		return err
	}
	if err := m.users.Restore(r); err != nil {
		return err
	}
	if err := m.items.Restore(r); err != nil {
		return err
	}
	for _, p := range m.params {
		if err := persist.ReadFloat64sInto(r, p.W.Data); err != nil {
			return err
		}
	}
	if err := m.users.RestoreMoments(r); err != nil {
		return err
	}
	if err := m.items.RestoreMoments(r); err != nil {
		return err
	}
	return nn.RestoreMoments(r, m.params)
}

// Snapshot implements Snapshotter. The moments go out in
// nn.SnapshotMoments' layout for E⁰ as one parameter, zero rows for the rows
// that are not live, so the bytes are those of a model that steps every row.
func (m *LightGCN) Snapshot(w io.Writer) error {
	if err := writeHeader(w, KindLightGCN); err != nil {
		return err
	}
	if err := persist.WriteFloat64s(w, m.e0.Data); err != nil {
		return err
	}
	if err := persist.WriteUint64(w, uint64(m.steps)); err != nil {
		return err
	}
	for _, st := range []*tensor.Matrix{&m.mom, &m.vel} {
		err := persist.WriteFloat64Rows(w, m.e0.Rows, m.e0.Cols, func(i int) []float64 {
			if s := m.slot[i]; s >= 0 {
				return st.Row(int(s))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Restore implements Snapshotter. A row that trained before the checkpoint
// keeps moving under its decaying moments whether or not it still has an
// edge, so every row with a moment bit set (a negative zero counts: a step
// turns it into +0) is live here as it was in the process that wrote the
// snapshot. Rows join in ascending order, by the first moment, then the
// second.
func (m *LightGCN) Restore(r io.Reader) error {
	if err := readHeader(r, KindLightGCN); err != nil {
		return err
	}
	if err := persist.ReadFloat64sInto(r, m.e0.Data); err != nil {
		return err
	}
	m.dirty, m.deadStale = true, true
	steps, err := persist.ReadUint64(r)
	if err != nil {
		return err
	}
	m.steps = int(steps)
	for _, st := range []*tensor.Matrix{&m.mom, &m.vel} {
		err := persist.ReadFloat64Rows(r, m.e0.Rows, m.e0.Cols, func(i int, row []float64) {
			if m.slot[i] >= 0 || slices.ContainsFunc(row, func(v float64) bool { return math.Float64bits(v) != 0 }) {
				copy(st.Row(m.markLive(i)), row)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// paramList returns NGCF's parameters in the canonical serialization order:
// E⁰, then W1 and W2 per layer.
func (m *NGCF) paramList() []*nn.Param {
	params := []*nn.Param{m.e0}
	for l := range m.w1 {
		params = append(params, m.w1[l], m.w2[l])
	}
	return params
}

// Snapshot implements Snapshotter.
func (m *NGCF) Snapshot(w io.Writer) error {
	if err := writeHeader(w, KindNGCF); err != nil {
		return err
	}
	if err := persist.WriteFloat64s(w, m.e0.W.Data); err != nil {
		return err
	}
	for l := range m.w1 {
		if err := persist.WriteFloat64s(w, m.w1[l].W.Data); err != nil {
			return err
		}
		if err := persist.WriteFloat64s(w, m.w2[l].W.Data); err != nil {
			return err
		}
	}
	return nn.SnapshotMoments(w, m.paramList())
}

// Restore implements Snapshotter.
func (m *NGCF) Restore(r io.Reader) error {
	if err := readHeader(r, KindNGCF); err != nil {
		return err
	}
	if err := persist.ReadFloat64sInto(r, m.e0.W.Data); err != nil {
		return err
	}
	for l := range m.w1 {
		if err := persist.ReadFloat64sInto(r, m.w1[l].W.Data); err != nil {
			return err
		}
		if err := persist.ReadFloat64sInto(r, m.w2[l].W.Data); err != nil {
			return err
		}
	}
	m.dirty = true
	return nn.RestoreMoments(r, m.paramList())
}
