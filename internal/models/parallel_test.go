package models

import (
	"bytes"
	"testing"

	"ptffedrec/internal/graph"
	"ptffedrec/internal/rng"
)

// bigBatch builds a deterministic batch spanning several gradient chunks,
// with repeated (user, item) pairs so row-gradient accumulation order is
// exercised.
func bigBatch(cfg Config, n int) []Sample {
	s := rng.New(99)
	batch := make([]Sample, n)
	for i := range batch {
		batch[i] = Sample{
			User:  s.Intn(cfg.NumUsers),
			Item:  s.Intn(cfg.NumItems),
			Label: float64(s.Intn(11)) / 10,
		}
	}
	return batch
}

func denseGraph(cfg Config, s *rng.Stream) *graph.Incremental {
	g := make(edgeRows, cfg.NumUsers)
	for u := 0; u < cfg.NumUsers; u++ {
		for _, v := range s.SampleInts(cfg.NumItems, 5) {
			g.add(u, v, 0.2+0.8*s.Float64())
		}
	}
	return g.engine(cfg.NumItems)
}

func snapshotBytes(t *testing.T, m Recommender) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.(Snapshotter).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainBatchWorkerInvariance pins the gradient-workspace contract for all
// four model kinds: several multi-chunk TrainBatch steps produce bitwise
// identical losses and parameter snapshots for every TrainWorkers value.
func TestTrainBatchWorkerInvariance(t *testing.T) {
	cfg := Config{NumUsers: 40, NumItems: 60, Dim: 8, LR: 1e-2, Layers: 2, Seed: 5}
	batch := bigBatch(cfg, 3*trainChunkSize+37)
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		var refLosses []float64
		var refSnap []byte
		for _, workers := range []int{1, 2, 8} {
			wcfg := cfg
			wcfg.TrainWorkers = workers
			m, err := New(kind, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			if gm, ok := m.(GraphRecommender); ok {
				gm.SetGraph(denseGraph(cfg, rng.New(31)))
			}
			losses := make([]float64, 3)
			for i := range losses {
				losses[i] = m.TrainBatch(batch)
			}
			snap := snapshotBytes(t, m)
			if workers == 1 {
				refLosses, refSnap = losses, snap
				continue
			}
			for i := range losses {
				if losses[i] != refLosses[i] {
					t.Fatalf("%s: workers=%d loss[%d] = %v, workers=1 %v",
						kind, workers, i, losses[i], refLosses[i])
				}
			}
			if !bytes.Equal(snap, refSnap) {
				t.Fatalf("%s: workers=%d snapshot differs from workers=1", kind, workers)
			}
		}
	}
}

// TestLazyModelsForceSerialSharding documents the guard: lazy tables
// materialise rows on read, so TrainWorkers must degrade to serial.
func TestLazyModelsForceSerialSharding(t *testing.T) {
	cfg := smallConfig()
	cfg.Lazy = true
	cfg.TrainWorkers = 8
	if w := resolveTrainWorkers(cfg); w != 1 {
		t.Fatalf("lazy config resolved to %d workers, want 1", w)
	}
	m := NewMF(cfg, rng.New(1))
	if m.workers != 1 {
		t.Fatalf("lazy MF workers = %d, want 1", m.workers)
	}
}
