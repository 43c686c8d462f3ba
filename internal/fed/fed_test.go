package fed

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"ptffedrec/internal/bitset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/privacy"
	"ptffedrec/internal/rng"
)

// tinySplit builds a deterministic small dataset for protocol tests.
func tinySplit(t *testing.T) *data.Split {
	t.Helper()
	d := data.Generate(data.Tiny, 42)
	return d.Split(rng.New(1), 0.2)
}

// fastConfig shrinks the paper's defaults so integration tests run quickly.
func fastConfig(server models.Kind) Config {
	cfg := DefaultConfig(server)
	cfg.Rounds = 3
	cfg.ClientEpochs = 2
	cfg.ServerEpochs = 1
	cfg.Dim = 8
	cfg.Alpha = 10
	cfg.LR = 5e-3
	cfg.Workers = 4
	return cfg
}

// runRoundUploads runs round as Trainer.RunRound does and returns, indexed by
// user, the upload each responder's outcome carried to the server — nil for a
// user outside the cohort or dropped.
func runRoundUploads(tr *Trainer, round int) [][]comm.Prediction {
	idx := tr.engine.Select(round)
	outcomes := make([]ClientOutcome, len(idx))
	tr.trainSlots(round, idx, outcomes, allSlots(len(idx)))
	_, dispersals := tr.engine.closeRound(round, outcomes, tr.splitEvaluator)
	tr.deliver(dispersals)
	uploads := make([][]comm.Prediction, tr.split.NumUsers)
	for _, o := range outcomes {
		uploads[o.ID] = o.Upload
	}
	return uploads
}

// uploadItems returns the distinct items of an upload, ascending — marked in
// a bitset and read back by probing every item, so the list shares no code
// with disperseTargetInto's sort.
func uploadItems(numItems int, upload []comm.Prediction) []int {
	set := bitset.New(numItems)
	for _, p := range upload {
		set.Add(p.Item)
	}
	var items []int
	for v := 0; v < numItems; v++ {
		if set.Contains(v) {
			items = append(items, v)
		}
	}
	return items
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(models.KindNGCF)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.ClientFraction = 0 },
		func(c *Config) { c.ClientFraction = 1.5 },
		func(c *Config) { c.ClientEpochs = 0 },
		func(c *Config) { c.ClientBatch = 0 },
		func(c *Config) { c.NegRatio = 0 },
		func(c *Config) { c.Dim = 0 },
		func(c *Config) { c.Layers = -1 },
		func(c *Config) { c.LR = 0 },
		func(c *Config) { c.LR = -1 },
		func(c *Config) { c.LR = math.NaN() },
		func(c *Config) { c.LR = math.Inf(1) },
		func(c *Config) { c.Alpha = -1 },
		func(c *Config) { c.Mu = 2 },
		func(c *Config) { c.GraphThreshold = -0.1 },
		// A zero threshold selects zero-score edges, which the graph engine
		// cannot take (it stages strictly positive weights only).
		func(c *Config) { c.GraphThreshold = 0 },
		func(c *Config) { c.GraphThreshold = math.NaN() },
		func(c *Config) { c.GraphThreshold = 1.5 },
		func(c *Config) { c.EvalK = 0 },
		func(c *Config) { c.Disperse = "bogus" },
		func(c *Config) { c.Privacy.Defense = "bogus" },
		func(c *Config) { c.QuantizeScores = true },
		// The upload sampler's windows: an empty γ window panics the first
		// client round, and β, λ and the Laplace scale have no meaning
		// outside these ranges.
		func(c *Config) { c.Privacy.GammaMin, c.Privacy.GammaMax = 3, 1 },
		func(c *Config) { c.Privacy.GammaMin = -1 },
		func(c *Config) { c.Privacy.BetaMin = -0.1 },
		func(c *Config) { c.Privacy.BetaMin, c.Privacy.BetaMax = 0.8, 0.2 },
		func(c *Config) { c.Privacy.BetaMax = 1.5 },
		func(c *Config) { c.Privacy.BetaMin = math.NaN() },
		func(c *Config) { c.Privacy.BetaMax = math.NaN() },
		func(c *Config) { c.Privacy.Lambda = -0.1 },
		func(c *Config) { c.Privacy.Lambda = 1.5 },
		func(c *Config) { c.Privacy.Lambda = math.NaN() },
		func(c *Config) { c.Privacy.LaplaceScale = -1 },
		func(c *Config) { c.Privacy.LaplaceScale = math.NaN() },
		// The attack's γ arrives in a participant's join-ack; outside
		// (0, 1] the Top Guess Attack guesses one item or every item.
		func(c *Config) { c.AttackPosFraction = 0 },
		func(c *Config) { c.AttackPosFraction = -0.2 },
		func(c *Config) { c.AttackPosFraction = 1.5 },
		func(c *Config) { c.AttackPosFraction = math.NaN() },
	}
	for i, mutate := range bad {
		c := DefaultConfig(models.KindNGCF)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	// The windows' ends stay valid, and so does a graph server without
	// propagation layers.
	edges := []func(*Config){
		func(c *Config) { c.Privacy.GammaMin, c.Privacy.GammaMax = 0, 0 },
		func(c *Config) { c.Privacy.BetaMin, c.Privacy.BetaMax = 0, 0 },
		func(c *Config) { c.Privacy.BetaMin, c.Privacy.BetaMax = 1, 1 },
		func(c *Config) { c.Privacy.Lambda, c.Privacy.LaplaceScale = 1, 0 },
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.AttackPosFraction = 1 },
	}
	for i, mutate := range edges {
		c := DefaultConfig(models.KindNGCF)
		mutate(&c)
		if err := c.Validate(); err != nil {
			t.Fatalf("edge %d refused: %v", i, err)
		}
	}
}

func TestParseDisperseMode(t *testing.T) {
	for _, s := range []string{"conf+hard", "-hard", "-confidence", "-confidence-hard"} {
		if _, ok := ParseDisperseMode(s); !ok {
			t.Fatalf("ParseDisperseMode(%q) failed", s)
		}
	}
	if _, ok := ParseDisperseMode("x"); ok {
		t.Fatal("bad mode accepted")
	}
}

func TestTrainerEndToEndNeuMFServer(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Rounds) != cfg.Rounds {
		t.Fatalf("rounds = %d", len(h.Rounds))
	}
	for _, rs := range h.Rounds {
		if rs.Participants != sp.NumUsers {
			t.Fatalf("round %d participants = %d, want all %d", rs.Round, rs.Participants, sp.NumUsers)
		}
		if rs.UploadBytes <= 0 || rs.DispersBytes <= 0 {
			t.Fatalf("round %d has zero traffic: %+v", rs.Round, rs)
		}
		if math.IsNaN(rs.ClientLoss) || math.IsNaN(rs.ServerLoss) {
			t.Fatalf("round %d loss NaN", rs.Round)
		}
	}
	if h.Final.Users == 0 {
		t.Fatal("final evaluation saw no users")
	}
	if h.Final.Recall < 0 || h.Final.Recall > 1 || h.Final.NDCG < 0 || h.Final.NDCG > 1 {
		t.Fatalf("final metrics out of range: %+v", h.Final)
	}
}

func TestTrainerGraphServerModels(t *testing.T) {
	sp := tinySplit(t)
	for _, kind := range []models.Kind{models.KindNGCF, models.KindLightGCN} {
		cfg := fastConfig(kind)
		cfg.Rounds = 2
		tr, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(); err != nil {
			t.Fatalf("%s server: %v", kind, err)
		}
		// The server must have absorbed uploads and rebuilt its graph.
		if sv := tr.Server(); sv.inc == nil || slices.Max(sv.itemFreq) == 0 {
			t.Fatalf("%s server saw no uploads", kind)
		}
	}
}

func TestServerLearnsCollaborativeSignal(t *testing.T) {
	// After training, the server model should rank held-out items better
	// than random. Random Recall@20 on 60 items ≈ 20/60 per relevant item,
	// so demand NDCG strictly above a weak floor.
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	cfg.Rounds = 6
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	first := h.Rounds[0].ServerLoss
	last := h.Rounds[len(h.Rounds)-1].ServerLoss
	if last >= first {
		t.Fatalf("server loss did not decrease: %v -> %v", first, last)
	}
}

func TestDispersalRespectsUploadExclusion(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uploads := runRoundUploads(tr, 0)
	for _, c := range tr.Clients() {
		sent := uploadItems(sp.NumItems, uploads[c.ID])
		for _, p := range c.ServerData() {
			if slices.Contains(sent, p.Item) {
				t.Fatalf("client %d: dispersed item %d was in its upload", c.ID, p.Item)
			}
			if p.Score < 0 || p.Score > 1 {
				t.Fatalf("dispersed score %v out of range", p.Score)
			}
		}
		if len(c.ServerData()) == 0 {
			t.Fatalf("client %d received no dispersal", c.ID)
		}
		if len(c.ServerData()) > cfg.Alpha {
			t.Fatalf("client %d received %d items, alpha=%d", c.ID, len(c.ServerData()), cfg.Alpha)
		}
	}
}

// TestCloseRoundCountsEmptyUploadAsDropped pins one classification for an
// empty upload on both transports: a non-dropped outcome that carries no
// prediction — in-process, a user with no training items; over the wire, a
// stream that ended before its first prediction — closes the round exactly as
// the same outcome marked Dropped does. Its loss and attack F1 stay out of
// the round's means, and it gets no dispersal.
func TestCloseRoundCountsEmptyUploadAsDropped(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	host, err := NewClientHost(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *RoundEngine {
		e, err := NewRoundEngine(sp.NumUsers, sp.NumItems, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	idx := newEngine().Select(0)
	withEmpty := make([]ClientOutcome, len(idx))
	for slot, id := range idx {
		withEmpty[slot] = host.RunClientRound(0, id).Outcome()
	}
	const slot = 3
	empty := idx[slot]
	withEmpty[slot] = ClientOutcome{ID: empty, Loss: 7, AttackF1: 1}
	withDrop := slices.Clone(withEmpty)
	withDrop[slot].Dropped = true

	gotStats, got := newEngine().CloseRound(0, withEmpty, nil)
	wantStats, want := newEngine().CloseRound(0, withDrop, nil)
	if gotStats != wantStats || gotStats.Dropped != 1 {
		t.Fatalf("an empty upload closes the round as\n  %v dropped=%d\nthe same outcome dropped closes it as\n  %v dropped=%d",
			gotStats, gotStats.Dropped, wantStats, wantStats.Dropped)
	}
	if len(got) != len(want) {
		t.Fatalf("%d dispersals with an empty upload, %d with it dropped", len(got), len(want))
	}
	for i, d := range got {
		if d.ID == empty {
			t.Fatalf("user %d, whose upload was empty, received a dispersal", empty)
		}
		if d.ID != want[i].ID || !bytes.Equal(d.Payload, want[i].Payload) {
			t.Fatalf("dispersal %d: user %d with an empty upload in the round, user %d with it dropped", i, d.ID, want[i].ID)
		}
	}
}

func TestDisperseModes(t *testing.T) {
	sp := tinySplit(t)
	for _, mode := range []DisperseMode{DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom} {
		cfg := fastConfig(models.KindNeuMF)
		cfg.Rounds = 1
		cfg.Disperse = mode
		tr, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.RunRound(0)
		for _, c := range tr.Clients()[:3] {
			if len(c.ServerData()) == 0 {
				t.Fatalf("mode %s: no dispersal", mode)
			}
		}
	}
}

func TestConfidenceSelectionPrefersFrequentItems(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	cfg.Mu = 1.0 // dispersal is purely confidence-based
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uploads := runRoundUploads(tr, 0)
	c := tr.Clients()[0]
	if len(c.ServerData()) == 0 {
		t.Fatal("no dispersal")
	}
	// Dispersed items should have frequency >= the median eligible item.
	sent := uploadItems(sp.NumItems, uploads[c.ID])
	freqs := make([]int, 0)
	for v := 0; v < sp.NumItems; v++ {
		if !slices.Contains(sent, v) {
			freqs = append(freqs, tr.Server().ItemFrequency(v))
		}
	}
	var sum int
	for _, f := range freqs {
		sum += f
	}
	meanFreq := float64(sum) / float64(len(freqs))
	var dispersedMean float64
	for _, p := range c.ServerData() {
		dispersedMean += float64(tr.Server().ItemFrequency(p.Item))
	}
	dispersedMean /= float64(len(c.ServerData()))
	if dispersedMean < meanFreq {
		t.Fatalf("confidence selection not frequency-biased: dispersed %.2f vs mean %.2f", dispersedMean, meanFreq)
	}
}

func TestAttackF1OrderingAcrossDefenses(t *testing.T) {
	if testing.Short() {
		t.Skip("full defense sweep; skipped in -short")
	}
	// The core privacy claim (Table V): no-defense leaks nearly everything,
	// sampling+swap leaks far less.
	// Once local models are trained enough to order positives above
	// negatives, an unprotected upload leaks them to the top-guess server.
	sp := tinySplit(t)
	run := func(d privacy.Defense) float64 {
		cfg := fastConfig(models.KindNeuMF)
		cfg.Rounds = 4
		cfg.ClientEpochs = 10
		cfg.ClientBatch = 16
		cfg.LR = 0.01
		cfg.Privacy.Defense = d
		tr, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return h.Rounds[len(h.Rounds)-1].AttackF1
	}
	none := run(privacy.DefenseNone)
	swap := run(privacy.DefenseSamplingSwap)
	if none < 0.7 {
		t.Fatalf("no-defense attack F1 = %v, want high (ordering leak)", none)
	}
	if swap >= none-0.2 {
		t.Fatalf("sampling+swap F1 %v not clearly below none %v", swap, none)
	}
}

func TestCommunicationIsKilobytes(t *testing.T) {
	// PTF-FedRec's headline: per-client per-round traffic is KB, not MB.
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	avg := h.BytesPerClientRound()
	if avg <= 0 {
		t.Fatal("no traffic recorded")
	}
	if avg > 64*1024 {
		t.Fatalf("avg per-client per-round = %v bytes, want well under 64KB", avg)
	}
}

// TestHistoryBytesPerClientRound pins Table IV's quantity on a hand-built
// History: both directions' totals over the summed Participants.
func TestHistoryBytesPerClientRound(t *testing.T) {
	t.Run("TwoRounds", func(t *testing.T) {
		h := &History{Rounds: []RoundStats{
			{Round: 0, Participants: 2, UploadBytes: 300, DispersBytes: 100},
			{Round: 1, Participants: 2, UploadBytes: 300, DispersBytes: 100},
		}}
		// (600 up + 200 down) / 4 client-rounds.
		if got := h.BytesPerClientRound(); got != 200 {
			t.Fatalf("BytesPerClientRound = %v, want 200", got)
		}
	})
	t.Run("NoRounds", func(t *testing.T) {
		if got := (&History{}).BytesPerClientRound(); got != 0 {
			t.Fatalf("BytesPerClientRound of no rounds = %v, want 0", got)
		}
	})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	cfg.Rounds = 2
	cfg.Workers = 3 // parallelism must not break determinism
	run := func() *History {
		tr, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := run(), run()
	if a.Final.Recall != b.Final.Recall || a.Final.NDCG != b.Final.NDCG {
		t.Fatalf("non-deterministic final metrics: %+v vs %+v", a.Final, b.Final)
	}
	for i := range a.Rounds {
		if a.Rounds[i].UploadBytes != b.Rounds[i].UploadBytes {
			t.Fatalf("round %d bytes differ", i)
		}
		if math.Abs(a.Rounds[i].ServerLoss-b.Rounds[i].ServerLoss) > 1e-12 {
			t.Fatalf("round %d server loss differs", i)
		}
	}
}

func TestClientFractionSelectsSubset(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	cfg.ClientFraction = 0.25
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := tr.RunRound(0)
	want := int(0.25 * float64(sp.NumUsers))
	if rs.Participants != want {
		t.Fatalf("participants = %d, want %d", rs.Participants, want)
	}
}

func TestTableVIIIClientModelCombos(t *testing.T) {
	// Graph models as *clients* (one-hop local graphs).
	sp := tinySplit(t)
	for _, ck := range []models.Kind{models.KindNGCF, models.KindLightGCN} {
		cfg := fastConfig(models.KindNeuMF)
		cfg.Rounds = 1
		cfg.ClientModel = ck
		tr, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs := tr.RunRound(0)
		if math.IsNaN(rs.ClientLoss) || rs.ClientLoss == 0 {
			t.Fatalf("client model %s produced loss %v", ck, rs.ClientLoss)
		}
	}
}

func TestRoundStatsString(t *testing.T) {
	rs := RoundStats{Round: 1, Participants: 5, Evaluated: true, Recall: 0.1, NDCG: 0.2}
	if rs.String() == "" {
		t.Fatal("empty stats string")
	}
}
