package models

import (
	"fmt"
	"testing"

	"ptffedrec/internal/graph"
	"ptffedrec/internal/rng"
)

// crossDeviceLightGCN builds the shape the federated server trains in the
// cross-device regime: a large population of which liveUsers have uploaded
// (a few edges each), and one server batch drawn from their uploads.
func crossDeviceLightGCN(numUsers, numItems, liveUsers, batchSize, workers int) (*LightGCN, []Sample) {
	cfg := Config{NumUsers: numUsers, NumItems: numItems, Dim: 16, LR: 0.05, Layers: 3, TrainWorkers: workers, Seed: 1}
	s := rng.New(17)
	m := NewLightGCN(cfg, s)
	users := s.SampleInts(numUsers, liveUsers)
	g := graph.NewBipartite(numUsers, numItems)
	for _, u := range users {
		for k := 0; k < 3; k++ {
			g.AddEdge(u, s.Intn(numItems), 0.5+0.5*s.Float64())
		}
	}
	m.SetGraph(g)
	batch := make([]Sample, batchSize)
	for i := range batch {
		batch[i] = Sample{User: users[s.Intn(len(users))], Item: s.Intn(numItems), Label: s.Float64()}
	}
	return m, batch
}

// TestLightGCNSteadyStateAllocatesNothing pins the workspace reuse: once the
// live list, the layer buffers and the chunk accumulators have reached their
// working size, a serial TrainBatch plus the scoring warm-up that follows it
// allocates nothing at all.
func TestLightGCNSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under the race detector")
	}
	m, batch := crossDeviceLightGCN(5000, 300, 400, 3*trainChunkSize+11, 1)
	step := func() {
		m.TrainBatch(batch)
		m.WarmScoring()
	}
	step()
	step()
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("steady-state TrainBatch+WarmScoring allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkLightGCNTrainBatch measures one server SGD step with its scoring
// warm-up at the sparse-250k shape: 250k users of whom 2k are live. Run with
// -benchmem; the serial case reports 0 allocs/op.
func BenchmarkLightGCNTrainBatch(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("users=250k/live=2k/workers=%d", workers), func(b *testing.B) {
			m, batch := crossDeviceLightGCN(250_000, 8192, 2000, 8192, workers)
			m.TrainBatch(batch)
			m.WarmScoring()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TrainBatch(batch)
				m.WarmScoring()
			}
		})
	}
}
