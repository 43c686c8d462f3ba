package models

import (
	"fmt"
	"io"
	"math"
	"slices"

	"ptffedrec/internal/persist"
	"ptffedrec/internal/tensor"
)

// snapshotMagic opens every snapshot: format V2, the parameters followed by
// the Adam moment state, so a restored model resumes training bit-for-bit
// where the snapshot left off. The weights-only V1 format is no longer read.
const snapshotMagic = "PTFREC-MODEL-V2"

// Snapshotter is implemented by the one model that checkpoints, LightGCN:
// the server model every benchmark workload runs. MF, NeuMF and NGCF keep
// their state only in memory, as the protocol never moves a model.
// Snapshots carry the parameters plus the optimizer's moment estimates, so a
// restored model resumes exactly. Snapshot between optimizer steps — pending
// gradients are not persisted.
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
	if err := persist.ExpectString(r, snapshotMagic); err != nil {
		return fmt.Errorf("models: bad snapshot header: %w", err)
	}
	if err := persist.ExpectString(r, string(kind)); err != nil {
		return fmt.Errorf("models: snapshot model kind mismatch: %w", err)
	}
	return nil
}

// Snapshot implements Snapshotter: the header, E⁰, then the Adam step count
// and each moment as one block over every row, zero rows for the rows that
// are not live, so the bytes are those of a model that steps every row.
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
