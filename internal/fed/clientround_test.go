package fed

import (
	"runtime"
	"slices"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
)

// mfClientHost builds a ClientHost at net-loopback's client shape: MF clients
// at d = 16 over large-50k-small's 900 items, three local epochs of
// 32-sample batches, the default sampling+swap upload.
func mfClientHost(tb testing.TB) *ClientHost {
	tb.Helper()
	cfg := DefaultConfig(models.KindLightGCN)
	cfg.ClientModel = models.KindMF
	cfg.Dim = 16
	cfg.LR = 0.05
	cfg.ClientEpochs = 3
	cfg.ClientBatch = 32
	h, err := NewClientHost(data.StreamSplit(data.LargeScaleSmall, 1, 0.2), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// builtClients lists the users whose client h has constructed so far.
func builtClients(h *ClientHost) []int {
	var ids []int
	for id, c := range h.clients {
		if c != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestClientHostBuildsOnFirstParticipation pins lazy hosting: a host builds
// client 0 up front, so an unknown client model fails at construction, and
// every other client in the round that first selects it.
func TestClientHostBuildsOnFirstParticipation(t *testing.T) {
	sp := tinySplit(t)
	cfg := DefaultConfig(models.KindMF)
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := builtClients(tr.host); !slices.Equal(got, []int{0}) {
		t.Fatalf("after NewTrainer the host holds clients %v, want [0]", got)
	}

	cfg.ClientFraction = 0.25
	if tr, err = NewTrainer(sp, cfg); err != nil {
		t.Fatal(err)
	}
	want := append([]int{0}, tr.engine.Select(0)...)
	slices.Sort(want)
	want = slices.Compact(want)
	if len(want) >= sp.NumUsers {
		t.Fatalf("cohort %v covers all %d users; the pin needs an idle one", want, sp.NumUsers)
	}
	tr.RunRound(0)
	if got := builtClients(tr.host); !slices.Equal(got, want) {
		t.Fatalf("after RunRound(0) at ClientFraction 0.25 the host holds clients %v, want the cohort plus client 0: %v", got, want)
	}

	cfg.ClientModel = "bogus"
	if _, err := NewClientHost(sp, cfg); err == nil {
		t.Fatal("NewClientHost accepted an unknown client model")
	}
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
	scoreItems(h.Client(id).Model(), 0, all)
}

// mfClientRoundAllocs is what one steady-state MF client round allocates,
// averaged over the rounds TestMFClientRoundSteadyStateAllocs runs. MF
// training and the Top Guess Attack, whose buffer comes from a pool,
// allocate nothing. What is left, per round:
//   - the round's "negs" stream: the stream, its generator and its lazy
//     source (3); it draws too few values to seed a 607-word state;
//   - SampleNegativesN's seen bitset and the negatives (2);
//   - localTrain's sample slice (1);
//   - the upload slices: SampleUpload's two index draws and the two slices
//     they fill, where a positive draw of under a quarter of Dᵢ takes a map
//     and a slice instead of a permutation (4 and a fraction); the item
//     list and the predictions (2), scored through a pooled one-user logit
//     block (oneUserBlock); Swap's one index list (1).
//
// The predictions go out as they are: their scores are rounded in place to
// the wire's float32, and nothing in the round encodes them.
const mfClientRoundAllocs = 13

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

// TestClientRetainedBytes pins the heap one materialised MF client keeps at
// sparse-250k's client shape: its catalogue of 8192 items and five
// interactions a user, d = 16, the cross-device configuration. 400 clients
// each run one round, and the heap they retain after GC must stay within
// what their rows need. A client's MF model keeps its user row and one row
// per item it trained or scored (21.4 rows a client here) in lazy-table
// pages of 1, 2, 4, 8, … rows, 192 B of float32 weights and moments a row:
// 28.4 rows of pages a client, 5.5 KB. The rest is at most 2.5 KB: each
// row's id and step count with their slices' slack (about 32 B a row), both
// tables' indexes and headers, the client and model structs, three streams
// at 88 B each (the client's own and the two tables' init streams), and the
// 5 % of item-table init streams that draw a row past the lazy source's 607
// values and seed a 5.4 KB state. Seeding that state at every stream's first
// draw costs a client 28 KB; one more seeded stream per client fails the
// bound. The bound, 8013 B, meets ROADMAP item 12's 8 KB (7.4 KB measured).
func TestClientRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs heap sizes")
	}
	const clients = 400
	cfg := DefaultConfig(models.KindLightGCN)
	cfg.ClientModel = models.KindMF
	cfg.Dim = 16
	cfg.LR = 0.05
	cfg.ClientEpochs = 3
	cfg.ClientBatch = 32
	prof := data.Profile{Name: "sparse-clients", NumUsers: 4 * clients, NumItems: 8192,
		Interactions: 4 * clients * 5, ZipfExponent: 1.05, Clusters: 64, ClusterBias: 0.7, MinPerUser: 3}
	h, err := NewClientHost(data.StreamSplit(prof, 1, 0.2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two collections empty sync.Pool's victim cache too, so the pooled
	// attack and wire buffers count on neither side.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for id := 1; id <= clients; id++ {
		h.RunClientRound(0, id)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	perClient := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / clients
	const bound = 28.4*192 + 2560
	t.Logf("retained per materialised client: %.0f B (bound %.0f B)", perClient, bound)
	if perClient > bound {
		t.Fatalf("a materialised MF client retains %.0f B after one round, want ≤ %.0f", perClient, bound)
	}
}
