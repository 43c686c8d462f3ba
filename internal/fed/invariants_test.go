package fed

import (
	"bytes"
	"strings"
	"testing"

	"ptffedrec/internal/models"
	"ptffedrec/internal/privacy"
)

// TestUploadInvariants checks, across seeds and defenses, the properties the
// protocol promises about every upload: scores in [0,1], items within the
// universe, no duplicates, size bounded by the trained pool, and — for the
// sampling defenses — strictly fewer items than the full pool on average. No
// duplicates is also what lets privacy.AttackF1 count guessed positions and
// uploaded positives in place of the two item sets.
func TestUploadInvariants(t *testing.T) {
	sp := tinySplit(t)
	for _, defense := range []privacy.Defense{
		privacy.DefenseNone, privacy.DefenseLDP,
		privacy.DefenseSampling, privacy.DefenseSamplingSwap,
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := fastConfig(models.KindNeuMF)
			cfg.Rounds = 1
			cfg.Seed = seed
			cfg.Privacy.Defense = defense
			tr, err := NewTrainer(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			uploads := runRoundUploads(tr, 0)
			var totalUpload, totalPool int
			for _, c := range tr.Clients() {
				pool := len(c.positives) * (1 + cfg.NegRatio)
				up := uploads[c.ID]
				if len(up) == 0 {
					t.Fatalf("defense %s: client %d uploaded nothing", defense, c.ID)
				}
				seen := make(map[int]bool, len(up))
				for _, p := range up {
					if p.Item < 0 || p.Item >= sp.NumItems {
						t.Fatalf("defense %s: uploaded item %d outside universe", defense, p.Item)
					}
					if seen[p.Item] {
						t.Fatalf("defense %s: client %d uploaded item %d twice", defense, c.ID, p.Item)
					}
					seen[p.Item] = true
				}
				if len(up) > pool {
					t.Fatalf("defense %s: upload %d exceeds trained pool %d", defense, len(up), pool)
				}
				totalUpload += len(up)
				totalPool += pool
			}
			if defense == privacy.DefenseSampling || defense == privacy.DefenseSamplingSwap {
				if totalUpload >= totalPool {
					t.Fatalf("defense %s: sampling did not shrink uploads (%d vs %d)",
						defense, totalUpload, totalPool)
				}
			}
			if defense == privacy.DefenseNone {
				// The whole trained pool is uploaded; the pool itself can be
				// slightly below positives×(1+ratio) when a heavy user runs
				// out of non-interacted items to sample.
				if totalUpload > totalPool || float64(totalUpload) < 0.95*float64(totalPool) {
					t.Fatalf("no defense should upload ≈the whole pool: %d vs %d", totalUpload, totalPool)
				}
			}
		}
	}
}

// TestDispersalScoreRange checks dispersed soft labels stay in [0,1] for
// every server model kind.
func TestDispersalScoreRange(t *testing.T) {
	sp := tinySplit(t)
	for _, kind := range []models.Kind{models.KindNeuMF, models.KindNGCF, models.KindLightGCN} {
		cfg := fastConfig(kind)
		cfg.Rounds = 1
		tr, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.RunRound(0)
		for _, c := range tr.Clients() {
			for _, p := range c.ServerData() {
				if p.Score < 0 || p.Score > 1 {
					t.Fatalf("server %s dispersed score %v", kind, p.Score)
				}
				if p.User != c.ID {
					t.Fatalf("dispersal for user %d reached client %d", p.User, c.ID)
				}
			}
		}
	}
}

// TestServerSnapshotRoundTrip checkpoints the hidden model mid-training and
// verifies a fresh trainer restored from it scores identically.
func TestServerSnapshotRoundTrip(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindLightGCN)
	cfg.Rounds = 2
	a, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Server().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cfg.Seed = 999 // different init everywhere
	b, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Server().Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// The snapshot carries parameters (not graph state): re-snapshotting the
	// restored server must reproduce the original bytes exactly.
	var buf2 bytes.Buffer
	if err := b.Server().Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot -> restore -> snapshot is not the identity")
	}
}

// TestServerSnapshotRefusesNGCF pins that only a
// LightGCN server checkpoints: Snapshot and Restore on an NGCF server return
// an error that names the kind, and neither panics nor writes or reads a byte.
func TestServerSnapshotRefusesNGCF(t *testing.T) {
	tr, err := NewTrainer(tinySplit(t), fastConfig(models.KindNGCF))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Server().Snapshot(&buf); err == nil || !strings.Contains(err.Error(), string(models.KindNGCF)) {
		t.Fatalf("Snapshot of an NGCF server: error %v, want one naming %q", err, models.KindNGCF)
	}
	if buf.Len() != 0 {
		t.Fatalf("Snapshot of an NGCF server wrote %d bytes", buf.Len())
	}
	r := bytes.NewReader([]byte("PTFREC"))
	if err := tr.Server().Restore(r); err == nil || !strings.Contains(err.Error(), string(models.KindNGCF)) {
		t.Fatalf("Restore into an NGCF server: error %v, want one naming %q", err, models.KindNGCF)
	}
	if r.Len() != 6 {
		t.Fatalf("Restore into an NGCF server read %d bytes", 6-r.Len())
	}
}

// TestAlphaZeroDisablesDispersal covers the degenerate α=0 configuration.
func TestAlphaZeroDisablesDispersal(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	cfg.Rounds = 1
	cfg.Alpha = 0
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := tr.RunRound(0)
	if rs.DispersBytes != 0 {
		t.Fatalf("alpha=0 dispersed %d bytes", rs.DispersBytes)
	}
	for _, c := range tr.Clients() {
		if len(c.ServerData()) != 0 {
			t.Fatal("alpha=0 client received data")
		}
	}
}

// TestAlphaLargerThanUniverse covers α exceeding the eligible item count.
func TestAlphaLargerThanUniverse(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	cfg.Rounds = 1
	cfg.Alpha = sp.NumItems * 2
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunRound(0)
	for _, c := range tr.Clients() {
		if len(c.ServerData()) > sp.NumItems {
			t.Fatalf("dispersed %d items from a %d-item universe", len(c.ServerData()), sp.NumItems)
		}
	}
}
