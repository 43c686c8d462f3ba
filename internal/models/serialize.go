package models

import (
	"fmt"
	"io"

	"ptffedrec/internal/nn"
	"ptffedrec/internal/persist"
)

// Snapshot format versions. V1 carried weights only; V2 appends the Adam
// moment state (embedding-table sparse-Adam rows and dense-parameter
// moments), so a restored model resumes training bit-for-bit where the
// snapshot left off. Restore accepts both: a V1 snapshot loads weights and
// leaves optimizer state untouched — the pre-V2 semantics.
const (
	snapshotMagicV1 = "PTFREC-MODEL-V1"
	snapshotMagic   = "PTFREC-MODEL-V2"
)

// Snapshotter is implemented by models that can persist their state.
// Snapshots carry the parameters plus (since format V2) the optimizer's
// moment estimates, so long federated runs can checkpoint-resume exactly.
// Snapshot between optimizer steps — pending gradients are not persisted.
type Snapshotter interface {
	// Snapshot writes the model's parameters and optimizer state to w.
	Snapshot(w io.Writer) error
	// Restore loads a snapshot previously written by Snapshot (any format
	// version) into this model. The model must have been constructed with
	// the same Config.
	Restore(r io.Reader) error
}

func writeHeader(w io.Writer, kind Kind) error {
	if err := persist.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	return persist.WriteString(w, string(kind))
}

// readHeader validates the magic and model kind, returning the snapshot's
// format version (1 or 2).
func readHeader(r io.Reader, kind Kind) (int, error) {
	magic, err := persist.ReadString(r)
	if err != nil {
		return 0, fmt.Errorf("models: bad snapshot header: %w", err)
	}
	var version int
	switch magic {
	case snapshotMagicV1:
		version = 1
	case snapshotMagic:
		version = 2
	default:
		return 0, fmt.Errorf("models: bad snapshot header: expected %q or %q, got %q",
			snapshotMagicV1, snapshotMagic, magic)
	}
	if err := persist.ExpectString(r, string(kind)); err != nil {
		return 0, fmt.Errorf("models: snapshot model kind mismatch: %w", err)
	}
	return version, nil
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
	version, err := readHeader(r, KindMF)
	if err != nil {
		return err
	}
	if err := m.users.Restore(r); err != nil {
		return err
	}
	if err := m.items.Restore(r); err != nil {
		return err
	}
	if version < 2 {
		return nil
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
	return m.opt.SnapshotState(w, m.params)
}

// Restore implements Snapshotter.
func (m *NeuMF) Restore(r io.Reader) error {
	version, err := readHeader(r, KindNeuMF)
	if err != nil {
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
	if version < 2 {
		return nil
	}
	if err := m.users.RestoreMoments(r); err != nil {
		return err
	}
	if err := m.items.RestoreMoments(r); err != nil {
		return err
	}
	return m.opt.RestoreState(r, m.params)
}

// Snapshot implements Snapshotter.
func (m *LightGCN) Snapshot(w io.Writer) error {
	if err := writeHeader(w, KindLightGCN); err != nil {
		return err
	}
	if err := persist.WriteFloat64s(w, m.e0.W.Data); err != nil {
		return err
	}
	return m.opt.SnapshotState(w, []*nn.Param{m.e0})
}

// Restore implements Snapshotter.
func (m *LightGCN) Restore(r io.Reader) error {
	version, err := readHeader(r, KindLightGCN)
	if err != nil {
		return err
	}
	if err := persist.ReadFloat64sInto(r, m.e0.W.Data); err != nil {
		return err
	}
	m.dirty, m.deadStale = true, true
	if version < 2 {
		return nil
	}
	if err := m.opt.RestoreState(r, []*nn.Param{m.e0}); err != nil {
		return err
	}
	// A row that trained before the checkpoint keeps moving under its
	// decaying moments whether or not it still has an edge: it is live here
	// as it was in the process that wrote the snapshot.
	for _, i := range m.opt.MomentRows(nil, m.e0) {
		m.markLive(i)
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
	return m.opt.SnapshotState(w, m.paramList())
}

// Restore implements Snapshotter.
func (m *NGCF) Restore(r io.Reader) error {
	version, err := readHeader(r, KindNGCF)
	if err != nil {
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
	if version < 2 {
		return nil
	}
	return m.opt.RestoreState(r, m.paramList())
}
