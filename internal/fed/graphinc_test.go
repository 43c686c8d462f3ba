package fed

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// requireSameCSR compares two CSR matrices with bit-level value equality —
// the maintained graph engine's contract against a fresh one.
func requireSameCSR(t *testing.T, label string, a, b *tensor.CSR) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: shape/nnz %dx%d/%d vs %dx%d/%d",
			label, a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
	}
	for r := 0; r <= a.Rows; r++ {
		if a.RowPtr[r] != b.RowPtr[r] {
			t.Fatalf("%s: RowPtr[%d] = %d vs %d", label, r, a.RowPtr[r], b.RowPtr[r])
		}
	}
	for i := range a.Val {
		if a.ColIdx[i] != b.ColIdx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			t.Fatalf("%s: entry %d = (%d,%x) vs (%d,%x)",
				label, i, a.ColIdx[i], a.Val[i], b.ColIdx[i], b.Val[i])
		}
	}
}

// checkIncMatchesFull asserts the server's maintained adjacency (both
// operators) bitwise-equals a fresh engine's build of every user's latest
// upload in record.
func checkIncMatchesFull(t *testing.T, label string, sv *Server, record *mapUploadStore, workers int) {
	t.Helper()
	if sv.inc == nil {
		t.Fatalf("%s: incremental engine not engaged", label)
	}
	g, _ := oracleGraph(sv, record)
	requireSameCSR(t, label+"/adj", g.AdjInto(nil, 1), sv.inc.AdjInto(nil, workers))
	requireSameCSR(t, label+"/adj+I", g.AdjSelfInto(nil, 1), sv.inc.AdjSelfInto(nil, workers))
}

// TestIncrementalAdjacencyMatchesFull drives servers through randomized
// partial-participation absorb/rebuild sequences — users re-uploading,
// batches from a handful of users up to everyone — and requires the
// maintained adjacency to bitwise-equal the oracle's fresh engine after
// every round.
func TestIncrementalAdjacencyMatchesFull(t *testing.T) {
	const numUsers, numItems = 300, 80
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("threshold/workers=%d", workers), func(t *testing.T) {
			sv := storeTestServer(t, numUsers, numItems, func(c *Config) {
				c.ServerModel = models.KindLightGCN
				c.GraphThreshold = 0.4
			})
			s := rng.New(17).Derive("incadj")
			record := newMapStoreOracle()
			rounds := 8
			if testing.Short() {
				rounds = 4
			}
			for r := 0; r < rounds; r++ {
				n := 1 + s.Intn(numUsers)
				uploads := make([][]comm.Prediction, 0, n)
				for _, u := range s.SampleInts(numUsers, n) {
					uploads = append(uploads, makeUpload(u, 1+s.Intn(14), numItems, s))
				}
				record.SetBatch(uploads)
				sv.absorb(uploads)
				sv.rebuildGraph(uploads, workers)
				checkIncMatchesFull(t, fmt.Sprintf("round %d", r), sv, record, workers)
			}
		})
	}
}

// oracleGraphModel is a graph server model that ignores the maintained
// adjacency: every rebuild hands it the oracle's fresh engine, staged from
// the upload record, instead, and records the engine's edge count. It keeps
// every capability the round engine asserts on its model.
type oracleGraphModel struct {
	graphServerModel
	sv     *Server
	record *mapUploadStore
	edges  []int
}

type graphServerModel interface {
	models.GraphRecommender
	models.MultiBlockScorer
	models.Warmer
}

func (m *oracleGraphModel) SetGraph(*graph.Incremental) {
	g, edges := oracleGraph(m.sv, m.record)
	m.graphServerModel.SetGraph(g)
	m.edges = append(m.edges, edges)
}

// TestGraphRebuildInvariance is the end-to-end pin demanded by the graph
// engine's contract: for both graph server kinds, every dispersal ablation
// arm, and every worker count, training on the maintained adjacency
// reproduces, bit for bit, the History of a server whose model takes a fresh
// engine staged with every user's latest upload every round. The
// reference drives its rounds one by one (Algorithm 1 as written) so that
// each round's uploads enter the record before the round closes. The
// threshold is 0.45 because on tiny the trained scores barely leave 0.5: at
// the default 0.5 the graphs held 0 or 1 edge and the pin compared two empty
// graphs, so every rebuild must now carry at least minEdges edges.
func TestGraphRebuildInvariance(t *testing.T) {
	const minEdges = 100
	arms := []DisperseMode{DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom}
	workerCounts := []int{1, 2, 8}
	if testing.Short() {
		arms = []DisperseMode{DisperseConfHard, DisperseAllRandom}
		workerCounts = []int{1, 8}
	}
	for _, server := range []models.Kind{models.KindNGCF, models.KindLightGCN} {
		for _, arm := range arms {
			cfg := fastConfig(server)
			cfg.Rounds = 2
			cfg.EvalEvery = 1
			cfg.Disperse = arm
			cfg.GraphThreshold = 0.45
			for _, workers := range workerCounts {
				cfg.Workers = workers
				label := fmt.Sprintf("%s/%s/workers=%d", server, arm, workers)
				ref, err := NewTrainer(tinySplit(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				oracle := &oracleGraphModel{ref.server.model.(graphServerModel), ref.server, newMapStoreOracle(), nil}
				ref.server.model = oracle
				var rounds []RoundStats
				for r := 0; r < cfg.Rounds; r++ {
					idx := ref.engine.Select(r)
					outcomes := make([]ClientOutcome, len(idx))
					ref.trainSlots(r, idx, outcomes, allSlots(len(idx)))
					oracle.record.SetOutcomes(outcomes)
					stats, dispersals := ref.engine.closeRound(r, outcomes, ref.splitEvaluator)
					ref.deliver(dispersals)
					rounds = append(rounds, stats)
				}
				refHist := NewHistory(rounds, ref.EvaluateServer())
				if len(oracle.edges) != cfg.Rounds {
					t.Fatalf("%s: %d oracle rebuilds in %d rounds", label, len(oracle.edges), cfg.Rounds)
				}
				for r, n := range oracle.edges {
					if n < minEdges {
						t.Fatalf("%s: round %d's graph holds %d edges, want at least %d", label, r, n, minEdges)
					}
				}
				requireEqualHistories(t, label, runHistory(t, cfg), refHist)
			}
		}
	}
}

// TestRunRoundEvalSequentialFallback pins the schedule on one schedulable
// thread: the round's evaluation still runs beside dispersal, and the client
// waves beside the server phases, only time-sliced — and the History is
// bitwise-identical to the run on two (which in turn equals RunRound +
// EvaluateServer).
func TestRunRoundEvalSequentialFallback(t *testing.T) {
	cfg := fastConfig(models.KindLightGCN)
	cfg.Rounds = 2
	cfg.EvalEvery = 1
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(2)
	overlapped := runHistory(t, cfg)

	runtime.GOMAXPROCS(1)
	tr, err := NewTrainer(tinySplit(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualHistories(t, "sequential-eval fallback", overlapped, sequential)
}

// FuzzGraphRebuild feeds randomized absorb/rebuild sequences (participation
// 1 user to everyone, re-uploads, fuzzed worker counts) through the server
// and asserts the incremental adjacency bitwise-equals the oracle's fresh
// engine every round.
func FuzzGraphRebuild(f *testing.F) {
	f.Add(uint64(1), uint8(3))
	f.Add(uint64(77), uint8(5))
	f.Add(uint64(123456), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nRounds uint8) {
		const numUsers, numItems = 80, 30
		sv := storeTestServer(t, numUsers, numItems, func(c *Config) {
			c.ServerModel = models.KindLightGCN
			c.GraphThreshold = 0.3
		})
		s := rng.New(seed).Derive("fuzz-graph")
		record := newMapStoreOracle()
		workers := 1 + s.Intn(8)
		rounds := int(nRounds%5) + 1
		for r := 0; r < rounds; r++ {
			n := 1 + s.Intn(numUsers)
			uploads := make([][]comm.Prediction, 0, n)
			for _, u := range s.SampleInts(numUsers, n) {
				uploads = append(uploads, makeUpload(u, 1+s.Intn(10), numItems, s))
			}
			record.SetBatch(uploads)
			sv.absorb(uploads)
			sv.rebuildGraph(uploads, workers)
			checkIncMatchesFull(t, fmt.Sprintf("round %d", r), sv, record, workers)
		}
	})
}

// rebuildBenchServer builds a warmed graph server over 600 users with 200
// absorbed uploads plus a cycle of small re-upload batches — the steady
// partial-participation shape (1% of users change per round).
func rebuildBenchServer(b *testing.B) (*Server, [][][]comm.Prediction) {
	b.Helper()
	const numUsers, numItems = 600, 150
	sv := storeTestServer(b, numUsers, numItems, func(c *Config) {
		c.ServerModel = models.KindLightGCN
		c.GraphThreshold = 0.4
	})
	s := rng.New(21).Derive("bench-rebuild")
	seedUploads := make([][]comm.Prediction, 0, 200)
	for _, u := range s.SampleInts(numUsers, 200) {
		seedUploads = append(seedUploads, makeUpload(u, 4+s.Intn(12), numItems, s))
	}
	sv.absorb(seedUploads)
	sv.rebuildGraph(seedUploads, 1)
	batches := make([][][]comm.Prediction, 8)
	for i := range batches {
		batch := make([][]comm.Prediction, 0, 6)
		for _, u := range s.SampleInts(numUsers, 6) {
			batch = append(batch, makeUpload(u, 4+s.Intn(12), numItems, s))
		}
		batches[i] = batch
	}
	return sv, batches
}

// BenchmarkRebuildGraph measures one steady-state graph rebuild after a 1%
// re-upload round. The -benchmem numbers are the regression pin: a rebuild
// must not scale allocations with the graph's size.
func BenchmarkRebuildGraph(b *testing.B) {
	sv, batches := rebuildBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.absorb(batches[i%len(batches)])
		sv.rebuildGraph(batches[i%len(batches)], 1)
	}
}
