package fed

import (
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
)

// mfClientHost builds a ClientHost at net-loopback's client shape: MF clients
// at d = 16 over large-50k-small's 900 items, three local epochs of
// 32-sample batches, lazy clients, the default sampling+swap upload.
func mfClientHost(tb testing.TB) *ClientHost {
	tb.Helper()
	cfg := DefaultConfig(models.KindLightGCN)
	cfg.ClientModel = models.KindMF
	cfg.Dim = 16
	cfg.LR = 0.05
	cfg.ClientEpochs = 3
	cfg.ClientBatch = 32
	cfg.LazyClients = true
	h, err := NewClientHost(data.StreamSplit(data.LargeScaleSmall, 1, 0.2), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// warmClient gives user id a dispersal of Alpha items, as a returning
// client holds, and materialises every row of its model.
func warmClient(h *ClientHost, id int) {
	sp := h.Split()
	dispersal := make([]comm.Prediction, h.cfg.Alpha)
	for k := range dispersal {
		dispersal[k] = comm.Prediction{User: id, Item: (k * 29) % sp.NumItems, Score: 0.5}
	}
	h.Deliver(id, dispersal)
	all := make([]int, sp.NumItems)
	for v := range all {
		all[v] = v
	}
	h.Client(id).Model().ScoreItems(0, all)
}

// mfClientRoundAllocs is what one steady-state MF client round allocates,
// averaged over the rounds TestMFClientRoundSteadyStateAllocs runs (924
// allocations in 50 rounds). MF training and the Top Guess Attack, whose
// buffer comes from a pool, allocate nothing. What is left, per round:
//   - the round's "negs" source: the derived stream, its lazy wrapper and,
//     at its first draw, the seeded generator and its state (5);
//   - SampleNegativesN's seen bitset and the negatives (2);
//   - localTrain's sample slice (1);
//   - the upload slices: SampleUpload's two index draws and the two slices
//     they fill, where a positive draw of under a quarter of Dᵢ takes a map
//     and a slice instead of a permutation (4 and a fraction); the item
//     list, its scores and the predictions (3); Swap's one index list (1);
//   - the payload and the decoded predictions (2).
const mfClientRoundAllocs = 18

// TestMFClientRoundSteadyStateAllocs pins the allocations of one MF client
// round whose rows are all materialised, so a map or a scratch slice that
// comes back on the path fails it.
func TestMFClientRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	h := mfClientHost(t)
	const id = 3
	warmClient(h, id)
	round := 0
	run := func() {
		h.RunClientRound(round, id)
		round++
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != mfClientRoundAllocs {
		t.Fatalf("a steady-state MF client round allocates %v times, want %d", allocs, mfClientRoundAllocs)
	}
}

// BenchmarkMFClientRound times RunClientRound at net-loopback's client
// shape. Clients are taken in turn from a pool of 2000 users, so each round
// finds its client's rows cold in cache, as a round of a 6000-user cohort
// does. It reports ns/op and, with -benchmem, allocs/op.
func BenchmarkMFClientRound(b *testing.B) {
	h := mfClientHost(b)
	const pool = 2000
	for id := 0; id < pool; id++ {
		warmClient(h, id)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		h.RunClientRound(i/pool, i%pool)
		i++
	}
}
