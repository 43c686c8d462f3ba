package models

import (
	"fmt"
	"runtime"
	"testing"

	"ptffedrec/internal/rng"
)

// crossDeviceLightGCN builds the shape the federated server trains in the
// cross-device regime: a large population of which liveUsers have uploaded
// (a few edges each), and one server batch drawn from their uploads.
func crossDeviceLightGCN(numUsers, numItems, liveUsers, batchSize, workers int) (*LightGCN, []Sample) {
	return crossDeviceLightGCNLayers(numUsers, numItems, liveUsers, batchSize, workers, 3)
}

func crossDeviceLightGCNLayers(numUsers, numItems, liveUsers, batchSize, workers, layers int) (*LightGCN, []Sample) {
	cfg := Config{NumUsers: numUsers, NumItems: numItems, Dim: 16, LR: 0.05, Layers: layers, TrainWorkers: workers, Seed: 1}
	s := rng.New(17)
	m := NewLightGCN(cfg, s)
	users := s.SampleInts(numUsers, liveUsers)
	g := make(edgeRows, numUsers)
	for _, u := range users {
		for k := 0; k < 3; k++ {
			g.add(u, s.Intn(numItems), 0.5+0.5*s.Float64())
		}
	}
	m.SetGraph(g.engine(numItems))
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

// TestLightGCNPassesWorkerInvariance pins the chunked passes over the live
// slots: with several liveChunk-slot chunks of live rows, training steps and
// the scoring warm-up give bitwise the losses, weights, moments and readout
// of the serial run, which is one chunk, for every worker count and layer
// count.
func TestLightGCNPassesWorkerInvariance(t *testing.T) {
	for layers := 0; layers <= 3; layers++ {
		var ref *LightGCN
		var refLosses []float64
		for _, workers := range []int{1, 2, 8} {
			m, batch := crossDeviceLightGCNLayers(5000, 300, 600, 2*trainChunkSize+5, workers, layers)
			if len(m.live) < 3*liveChunk {
				t.Fatalf("%d live rows span fewer than three chunks", len(m.live))
			}
			var losses []float64
			for i := 0; i < 3; i++ {
				losses = append(losses, m.TrainBatch(batch))
				m.WarmScoring()
			}
			if workers == 1 {
				ref, refLosses = m, losses
				continue
			}
			for name, pair := range map[string][2][]float64{
				"loss": {refLosses, losses}, "E⁰": {ref.e0.Data, m.e0.Data}, "readout": {ref.final.Data, m.final.Data},
				"first moment": {ref.mom.Data, m.mom.Data}, "second moment": {ref.vel.Data, m.vel.Data},
			} {
				if !sameBits(pair[0], pair[1]) {
					t.Fatalf("layers=%d workers=%d: %s differs from the serial run", layers, workers, name)
				}
			}
		}
	}
}

// trainedCrossDevice builds the sparse-250k shape (250k users, 8192 items,
// 2000 of the users live), trains it to steady state and returns it with its
// batch and the heap it retains beyond E⁰ and the readout — the two matrices
// that stay dense by node — per live row.
func trainedCrossDevice(workers int) (m *LightGCN, batch []Sample, perLiveRow float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, batch = crossDeviceLightGCN(250_000, 8192, 2000, 8192, workers)
	for i := 0; i < 3; i++ {
		m.TrainBatch(batch)
		m.WarmScoring()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	dense := int64(len(m.e0.Data)+len(m.final.Data)) * 8
	return m, batch, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)-dense) / float64(len(m.live))
}

// TestLightGCNRetainedBytesPerLiveRow pins the server model's memory to the
// rows it has heard from. At the sparse-250k shape, trained to steady state,
// the heap it retains beyond E⁰ and the readout must be at most the six
// d-wide work rows a live row owns (6·d·8 = 768 B at d = 16) plus slack: a
// quarter of that for the work matrices' growth headroom, 12 B per node of
// the population for Â's row pointers and the node→slot index, and 512 B for
// the rest (Â's entries, the live list, the gradient shards and the batch).
// Work matrices kept densely by node would retain about 19 KB per live row.
func TestLightGCNRetainedBytesPerLiveRow(t *testing.T) {
	m, _, perRow := trainedCrossDevice(1)
	work := 6 * m.cfg.Dim * 8
	bound := 1.25*float64(work) + 12*float64(len(m.slot))/float64(len(m.live)) + 512
	t.Logf("retained per live row at d = %d: %.0f B (%d live of %d rows; bound %.0f B, work rows %d B)",
		m.cfg.Dim, perRow, len(m.live), len(m.slot), bound, work)
	if perRow > bound {
		t.Fatalf("LightGCN retains %.0f B per live row beyond E⁰ and the readout, want ≤ %.0f", perRow, bound)
	}
}

// BenchmarkLightGCNTrainBatch measures one server SGD step with its scoring
// warm-up at the sparse-250k shape: 250k users of whom 2k are live. Run with
// -benchmem; the serial case reports 0 allocs/op, and B/live-row is the heap
// the model retains beyond E⁰ and the readout per live row.
func BenchmarkLightGCNTrainBatch(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("users=250k/live=2k/workers=%d", workers), func(b *testing.B) {
			m, batch, perRow := trainedCrossDevice(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TrainBatch(batch)
				m.WarmScoring()
			}
			b.ReportMetric(perRow, "B/live-row")
		})
	}
}
