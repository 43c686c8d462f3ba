package models

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ptffedrec/internal/persist"
)

// trainedModel builds a model of the given kind, trains it briefly, and
// returns it.
func trainedModel(t *testing.T, kind Kind, seed uint64) Recommender {
	t.Helper()
	cfg := smallConfig()
	cfg.Seed = seed
	m, err := New(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gm, ok := m.(GraphRecommender); ok {
		gm.SetGraph(smallGraph(cfg))
	}
	for i := 0; i < 20; i++ {
		m.TrainBatch(smallBatch())
	}
	return m
}

func TestSnapshotRestoreAllModels(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		src := trainedModel(t, kind, 1)
		var buf bytes.Buffer
		if err := src.(Snapshotter).Snapshot(&buf); err != nil {
			t.Fatalf("%s snapshot: %v", kind, err)
		}

		// Restore into a model built from a different seed: all scores must
		// match the source exactly afterwards.
		dst := trainedModel(t, kind, 99)
		if gm, ok := dst.(GraphRecommender); ok {
			gm.SetGraph(smallGraph(smallConfig()))
		}
		if err := dst.(Snapshotter).Restore(&buf); err != nil {
			t.Fatalf("%s restore: %v", kind, err)
		}
		for u := 0; u < 4; u++ {
			for v := 0; v < 6; v++ {
				a, b := src.Score(u, v), dst.Score(u, v)
				if math.Abs(a-b) > 1e-12 {
					t.Fatalf("%s: score(%d,%d) %v != %v after restore", kind, u, v, a, b)
				}
			}
		}
	}
}

func TestRestoreRejectsWrongKind(t *testing.T) {
	src := trainedModel(t, KindMF, 1)
	var buf bytes.Buffer
	if err := src.(Snapshotter).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := trainedModel(t, KindNeuMF, 2)
	if err := dst.(Snapshotter).Restore(&buf); err == nil {
		t.Fatal("NeuMF restored an MF snapshot")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	dst := trainedModel(t, KindLightGCN, 3)
	if err := dst.(Snapshotter).Restore(bytes.NewBufferString("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRestoreRejectsTruncated(t *testing.T) {
	src := trainedModel(t, KindNGCF, 4)
	var buf bytes.Buffer
	if err := src.(Snapshotter).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()/2])
	dst := trainedModel(t, KindNGCF, 5)
	if err := dst.(Snapshotter).Restore(trunc); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestLazySnapshotRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.Lazy = true
	a, err := New(KindNeuMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.TrainBatch(smallBatch())
	}
	var buf bytes.Buffer
	if err := a.(Snapshotter).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 77
	b, err := New(KindNeuMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.(Snapshotter).Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for _, smp := range smallBatch() {
		if math.Abs(a.Score(smp.User, smp.Item)-b.Score(smp.User, smp.Item)) > 1e-12 {
			t.Fatal("lazy snapshot round trip changed scores")
		}
	}
}

// TestCheckpointResumeExact pins the V2 format's reason to exist: training k
// more batches after a restore must be bitwise-identical to never having
// checkpointed, because the Adam moment state travels with the weights.
func TestCheckpointResumeExact(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		cfg := smallConfig()
		a, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gm, ok := a.(GraphRecommender); ok {
			gm.SetGraph(smallGraph(cfg))
		}
		for i := 0; i < 7; i++ {
			a.TrainBatch(smallBatch())
		}
		var buf bytes.Buffer
		if err := a.(Snapshotter).Snapshot(&buf); err != nil {
			t.Fatalf("%s snapshot: %v", kind, err)
		}

		b, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gm, ok := b.(GraphRecommender); ok {
			gm.SetGraph(smallGraph(cfg))
		}
		if err := b.(Snapshotter).Restore(&buf); err != nil {
			t.Fatalf("%s restore: %v", kind, err)
		}

		for i := 0; i < 7; i++ {
			la := a.TrainBatch(smallBatch())
			lb := b.TrainBatch(smallBatch())
			if la != lb {
				t.Fatalf("%s: post-resume batch %d loss %v != %v", kind, i, la, lb)
			}
		}
		for u := 0; u < smallConfig().NumUsers; u++ {
			for v := 0; v < smallConfig().NumItems; v++ {
				if a.Score(u, v) != b.Score(u, v) {
					t.Fatalf("%s: score(%d,%d) diverged after resume: %v != %v",
						kind, u, v, a.Score(u, v), b.Score(u, v))
				}
			}
		}
	}
}

// TestCheckpointResumeExactLazy is TestCheckpointResumeExact for lazy
// embedding tables (the client-side configuration): per-row moments and step
// counters must survive the round trip, and rows materialised after the
// resume must draw the same init values as the uninterrupted run.
func TestCheckpointResumeExactLazy(t *testing.T) {
	cfg := smallConfig()
	cfg.Lazy = true
	a, err := New(KindNeuMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Train on a subset of items so some rows stay unmaterialised at the
	// checkpoint and first materialise after the resume.
	pre := smallBatch()[:3]
	for i := 0; i < 7; i++ {
		a.TrainBatch(pre)
	}
	var buf bytes.Buffer
	if err := a.(Snapshotter).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := New(KindNeuMF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.(Snapshotter).Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		la := a.TrainBatch(smallBatch())
		lb := b.TrainBatch(smallBatch())
		if la != lb {
			t.Fatalf("lazy post-resume batch %d loss %v != %v", i, la, lb)
		}
	}
	for _, smp := range smallBatch() {
		if a.Score(smp.User, smp.Item) != b.Score(smp.User, smp.Item) {
			t.Fatal("lazy checkpoint-resume diverged")
		}
	}
}

// TestRestoreRejectsV1Snapshots pins the retirement of the weights-only V1
// format: a V1 header is refused with an error that names the V2 magic
// Restore expects.
func TestRestoreRejectsV1Snapshots(t *testing.T) {
	var buf bytes.Buffer
	if err := persist.WriteString(&buf, "PTFREC-MODEL-V1"); err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteString(&buf, string(KindMF)); err != nil {
		t.Fatal(err)
	}
	err := trainedModel(t, KindMF, 1).(Snapshotter).Restore(&buf)
	if err == nil || !strings.Contains(err.Error(), snapshotMagic) {
		t.Fatalf("V1 restore: got error %v, want one naming %q", err, snapshotMagic)
	}
}

func TestAllModelsImplementSnapshotter(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		m, err := New(kind, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(Snapshotter); !ok {
			t.Fatalf("%s does not implement Snapshotter", kind)
		}
	}
}
