package fed

// The protocol's invariants as executable properties, stated in the paper's
// terms (Algorithm 1, Eq. 3–9) and checked on the live round path — never
// against another implementation of the same engine. Every expectation below
// is recomputed naively from what crossed the client/server boundary: the
// uploads the server received and the dispersals it sent back.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/privacy"
	"ptffedrec/internal/rng"
)

// observedRound is one global round with the values that crossed the
// boundary kept: what each cohort slot delivered and what each responder got
// back.
type observedRound struct {
	cohort     []int
	outcomes   []ClientOutcome
	stats      RoundStats
	dispersals []Dispersal
}

// observeRound runs Algorithm 1's loop body exactly as Trainer.RunRound
// composes it — Select, every cohort member's client round, CloseRound,
// delivery — and keeps the intermediate values. lose, when non-nil, marks
// cohort slots whose upload the transport loses after the client trained (the
// coordinator's straggler deadline does this to real uploads); beforeClose
// runs once the outcomes are known and before the server sees them.
func observeRound(tr *Trainer, round int, lose func(slot int) bool, beforeClose func([]ClientOutcome)) observedRound {
	obs := observedRound{cohort: tr.engine.Select(round)}
	obs.outcomes = make([]ClientOutcome, len(obs.cohort))
	for slot, id := range obs.cohort {
		obs.outcomes[slot] = tr.host.RunClientRound(round, id).Outcome()
		if lose != nil && lose(slot) {
			obs.outcomes[slot] = ClientOutcome{ID: id, Dropped: true}
		}
	}
	if beforeClose != nil {
		beforeClose(obs.outcomes)
	}
	obs.stats, obs.dispersals = tr.engine.CloseRound(round, obs.outcomes, nil)
	for _, d := range obs.dispersals {
		tr.host.Deliver(d.ID, d.Preds)
	}
	return obs
}

// serverReplay is the naive model of the server's bookkeeping: replay every
// upload the server absorbed and count.
type serverReplay struct {
	itemFreq []int
	absorbed map[int]int // user -> number of absorbed uploads
}

func newServerReplay(numItems int) *serverReplay {
	return &serverReplay{
		itemFreq: make([]int, numItems),
		absorbed: map[int]int{},
	}
}

func (sr *serverReplay) absorb(outcomes []ClientOutcome) {
	for _, o := range outcomes {
		if o.Dropped || len(o.Upload) == 0 {
			continue
		}
		for _, p := range o.Upload {
			sr.itemFreq[p.Item]++
		}
		sr.absorbed[o.ID]++
	}
}

// requireServerMatchesReplay checks property (c): the confidence counters
// equal a recount of every absorbed upload.
func requireServerMatchesReplay(t *testing.T, label string, tr *Trainer, sr *serverReplay) {
	t.Helper()
	for v, want := range sr.itemFreq {
		if got := tr.server.ItemFrequency(v); got != want {
			t.Fatalf("%s: itemFreq[%d] = %d, recount of absorbed uploads says %d", label, v, got, want)
		}
	}
}

// requireDispersalProperties checks properties (a) and (b) for one
// responder's D̃ᵢ against the upload the server received from them in the
// same round (Eq. 9's V̂ᵗᵢ) and the frozen post-round server state: size,
// distinctness, exclusion, the µ split, and that each soft label is the
// hidden model's prediction (Eq. 6) to float32 precision. It returns
// |eligible| for the caller's coverage accounting.
func requireDispersalProperties(t *testing.T, label string, tr *Trainer, upload []comm.Prediction, d Dispersal) int {
	t.Helper()
	cfg, sv, numItems := tr.cfg, tr.server, tr.split.NumItems

	uploaded := make([]bool, numItems)
	for _, p := range upload {
		uploaded[p.Item] = true
	}
	var eligible []int
	for v := 0; v < numItems; v++ {
		if !uploaded[v] {
			eligible = append(eligible, v)
		}
	}
	want := min(cfg.Alpha, len(eligible))
	if len(d.Preds) != want {
		t.Fatalf("%s: |D̃| = %d, want min(α=%d, |eligible|=%d)", label, len(d.Preds), cfg.Alpha, len(eligible))
	}
	inD := make([]bool, numItems)
	for _, p := range d.Preds {
		if p.User != d.ID {
			t.Fatalf("%s: prediction for user %d inside user %d's dispersal", label, p.User, d.ID)
		}
		if p.Item < 0 || p.Item >= numItems {
			t.Fatalf("%s: dispersed item %d outside the universe", label, p.Item)
		}
		if inD[p.Item] {
			t.Fatalf("%s: item %d dispersed twice", label, p.Item)
		}
		inD[p.Item] = true
		if uploaded[p.Item] {
			t.Fatalf("%s: item %d is in the user's upload and was dispersed anyway (Eq. 9)", label, p.Item)
		}
	}
	if want == 0 {
		return len(eligible)
	}

	// Eq. 6: the soft label is the hidden model's score, through the wire's
	// float32.
	const tol = 1e-6
	score := make([]float64, numItems)
	for i, s := range sv.model.ScoreItems(d.ID, eligible) {
		score[eligible[i]] = s
	}
	for _, p := range d.Preds {
		if math.Abs(p.Score-score[p.Item]) > tol {
			t.Fatalf("%s: soft label for item %d is %v, the server model scores it %v", label, p.Item, p.Score, score[p.Item])
		}
	}

	// The µ split: the first min(⌊µα⌋, |eligible|) items are the confidence
	// half, the rest the hard half. Where a half is not a random ablation
	// arm, nothing it left behind may beat anything it chose.
	nConf := min(int(cfg.Mu*float64(cfg.Alpha)), len(eligible))
	conf, hard := d.Preds[:nConf], d.Preds[nConf:]
	confRandom := cfg.Disperse == DisperseNoConf || cfg.Disperse == DisperseAllRandom
	hardRandom := cfg.Disperse == DisperseNoHard || cfg.Disperse == DisperseAllRandom
	if !confRandom && len(conf) > 0 {
		inConf := make([]bool, numItems)
		minChosen := math.MaxInt
		for _, p := range conf {
			inConf[p.Item] = true
			minChosen = min(minChosen, sv.ItemFrequency(p.Item))
		}
		for _, v := range eligible {
			if !inConf[v] && sv.ItemFrequency(v) > minChosen {
				t.Fatalf("%s: confidence half holds an item updated %d times but skipped eligible item %d updated %d times",
					label, minChosen, v, sv.ItemFrequency(v))
			}
		}
	}
	if !hardRandom && len(hard) > 0 {
		minChosen := math.Inf(1)
		for _, p := range hard {
			minChosen = math.Min(minChosen, score[p.Item])
		}
		for _, v := range eligible {
			if !inD[v] && score[v] > minChosen+1e-12 {
				t.Fatalf("%s: hard half holds an item scored %v but skipped eligible item %d scored %v",
					label, minChosen, v, score[v])
			}
		}
	}
	return len(eligible)
}

// propertyConfig draws one randomized protocol configuration around the
// pinned (server kind, dispersal arm, µ) cell.
func propertyConfig(s *rng.Stream, server models.Kind, arm DisperseMode, mu float64) Config {
	cfg := fastConfig(server)
	cfg.ClientModel = models.KindMF
	cfg.ClientEpochs = 1
	cfg.Rounds = 3
	cfg.Disperse = arm
	cfg.Mu = mu
	cfg.Seed = uint64(1 + s.Intn(1<<20))
	// This draw once picked the wire codec. It stays, discarded, so every
	// later draw — and with it every sampled cell — is what it was.
	_ = s.Bernoulli(0.5)
	cfg.Alpha = []int{3, 10, 30, 55, 120}[s.Intn(5)]
	cfg.ClientFraction = []float64{0.3, 0.6, 1}[s.Intn(3)]
	cfg.NegRatio = []int{4, 4, 30}[s.Intn(3)] // at 30 an undefended upload leaves only held-out items eligible
	cfg.Workers = []int{1, 2, 8}[s.Intn(3)]
	cfg.Privacy.Defense = []privacy.Defense{
		privacy.DefenseNone, privacy.DefenseLDP, privacy.DefenseSampling, privacy.DefenseSamplingSwap,
	}[s.Intn(4)]
	cfg.Faults = []FaultPlan{
		{},
		{DropoutRate: 0.3},
		{TruncateRate: 0.6},
		{DropoutRate: 0.25, TruncateRate: 0.5},
	}[s.Intn(4)]
	return cfg
}

func propertyTrainer(t *testing.T, sp *data.Split, cfg Config) *Trainer {
	t.Helper()
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestProtocolProperties runs the randomized sweep: four server kinds × four
// dispersal arms × µ ∈ {0, 0.5, 0.9, 1}, with α, participation,
// defense, worker count and fault plan drawn per cell. Every round it checks, on the live path, that a twin trainer's
// RunRound reports the same RoundStats (so what is observed is the product's
// round), |D̃ᵢ| = min(α, |eligible|) with distinct items and the µ split (a),
// the Eq. 9 exclusion against the responder's — possibly truncated — upload
// in the outcome (b), and the confidence counters against a naive replay of
// the absorbed uploads (c).
func TestProtocolProperties(t *testing.T) {
	sp := tinySplit(t)
	s := rng.New(20240913).Derive("protocol-properties")
	cell := 0
	// What the draws must have exercised for the sweep to mean anything.
	var filled, shortOfAlpha, dropped, reuploads int
	for _, server := range []models.Kind{models.KindMF, models.KindNeuMF, models.KindNGCF, models.KindLightGCN} {
		for _, arm := range []DisperseMode{DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom} {
			for _, mu := range []float64{0, 0.5, 0.9, 1} {
				cfg := propertyConfig(s, server, arm, mu)
				cell++
				if testing.Short() && cell%4 != 0 {
					continue
				}
				name := fmt.Sprintf("%s/%s/mu=%v/alpha=%d/frac=%v/%s/faults=%+v",
					server, arm, mu, cfg.Alpha, cfg.ClientFraction, cfg.Privacy.Defense, cfg.Faults)
				tr := propertyTrainer(t, sp, cfg)
				twin := propertyTrainer(t, sp, cfg)
				replay := newServerReplay(sp.NumItems)
				for round := 0; round < cfg.Rounds; round++ {
					label := fmt.Sprintf("%s round %d", name, round)
					obs := observeRound(tr, round, nil, nil)
					if want := twin.RunRound(round); obs.stats != want {
						t.Fatalf("%s: observed round differs from Trainer.RunRound:\n  %+v\n  %+v", label, obs.stats, want)
					}
					replay.absorb(obs.outcomes)
					requireServerMatchesReplay(t, label, tr, replay)

					responders := 0
					for _, o := range obs.outcomes {
						if o.Dropped {
							continue
						}
						d := obs.dispersals[responders]
						responders++
						if d.ID != o.ID {
							t.Fatalf("%s: dispersal %d is for user %d, responder slot holds user %d", label, responders-1, d.ID, o.ID)
						}
						if n := requireDispersalProperties(t, fmt.Sprintf("%s user %d", label, o.ID), tr, o.Upload, d); n < cfg.Alpha {
							shortOfAlpha++
						} else {
							filled++
						}
						if replay.absorbed[o.ID] > 1 {
							reuploads++
						}
						if got := tr.host.Client(o.ID).ServerData(); !slices.Equal(got, d.Preds) {
							t.Fatalf("%s: client %d holds a different D̃ than the server dispersed", label, o.ID)
						}
					}
					if responders != len(obs.dispersals) {
						t.Fatalf("%s: %d dispersals for %d responders", label, len(obs.dispersals), responders)
					}
					if obs.stats.Dropped != len(obs.outcomes)-responders {
						t.Fatalf("%s: stats count %d dropped, %d outcomes were", label, obs.stats.Dropped, len(obs.outcomes)-responders)
					}
					dropped += obs.stats.Dropped
				}
			}
		}
	}
	t.Logf("dispersals checked: %d filled to α, %d short of α; %d re-uploads, %d dropped clients",
		filled, shortOfAlpha, reuploads, dropped)
	if filled == 0 || shortOfAlpha == 0 || reuploads == 0 || dropped == 0 {
		t.Fatal("the randomized sweep missed a regime it exists to cover")
	}
}

// TestUploadComposition states §III-B2's D̂ᵗᵢ on the live path, per defense,
// from the uploads that crossed the boundary and the split alone. A client
// trains on its positives Dᵢ and a pool of min(NegRatio·|Dᵢ|, free)
// non-interacted items; `none` and `ldp` upload that whole pool, while
// `sampling` and `sampling+swap` upload nPos = ⌈β·|Dᵢ|⌉ positives for
// β ~ U[β_min, β_max] and γ·nPos negatives for an integer γ ~ U{γ_min..γ_max},
// unless the pool is smaller (Eq. 7).
//
// The β distribution is checked through its mean. β_max ≤ 1 and β_min > 0 keep
// ⌈β·n⌉ inside [1, n] without clamping, so each upload has nPos/n ∈ [β, β+1/n)
// and the mean over N uploads lies in [β̄, β̄ + mean(1/nᵢ)), where β̄ averages N
// independent uniform draws: expectation (β_min+β_max)/2, standard deviation
// (β_max−β_min)/√(12·N). The test allows four of those either side, plus the
// ceil's one-sided mean(1/nᵢ), and nothing else.
func TestUploadComposition(t *testing.T) {
	sp := tinySplit(t)
	type window struct {
		betaMin, betaMax   float64
		gammaMin, gammaMax int
	}
	windows := []window{{0.1, 1, 1, 4}, {0.3, 0.7, 2, 3}} // §IV-D's, and one with every end interior
	for _, defense := range []privacy.Defense{
		privacy.DefenseNone, privacy.DefenseLDP, privacy.DefenseSampling, privacy.DefenseSamplingSwap,
	} {
		sampled := defense == privacy.DefenseSampling || defense == privacy.DefenseSamplingSwap
		for wi, w := range windows {
			var uploads, capped int
			var sumFrac, sumInv float64
			gammaSeen := map[int]int{}
			for _, negRatio := range []int{2, 4, 30} { // 2 caps γ·nPos, 30 outruns the free items
				cfg := fastConfig(models.KindMF)
				cfg.ClientModel, cfg.ClientEpochs, cfg.Rounds = models.KindMF, 1, 4
				cfg.Seed = uint64(100*wi + negRatio)
				cfg.NegRatio = negRatio
				cfg.Privacy.Defense = defense
				cfg.Privacy.BetaMin, cfg.Privacy.BetaMax = w.betaMin, w.betaMax
				cfg.Privacy.GammaMin, cfg.Privacy.GammaMax = w.gammaMin, w.gammaMax
				tr := propertyTrainer(t, sp, cfg)
				for round := 0; round < cfg.Rounds; round++ {
					for _, o := range observeRound(tr, round, nil, nil).outcomes {
						label := fmt.Sprintf("%s window %d NegRatio %d round %d user %d", defense, wi, negRatio, round, o.ID)
						n := len(sp.Train[o.ID])
						pool := min(negRatio*n, sp.NumItems-n-len(sp.Test[o.ID]))
						seen := map[int]bool{}
						nPos, nNeg := 0, 0
						for _, p := range o.Upload {
							switch {
							case seen[p.Item]:
								t.Fatalf("%s: item %d uploaded twice", label, p.Item)
							case sp.InTrain(o.ID, p.Item):
								nPos++
							case sp.InTest(o.ID, p.Item):
								t.Fatalf("%s: held-out item %d uploaded as a negative", label, p.Item)
							default:
								nNeg++
							}
							seen[p.Item] = true
						}
						if !sampled {
							if nPos != n || nNeg != pool {
								t.Fatalf("%s: uploaded %d positives + %d negatives, the trained pool is %d + %d", label, nPos, nNeg, n, pool)
							}
							continue
						}
						if lo, hi := int(math.Ceil(w.betaMin*float64(n))), int(math.Ceil(w.betaMax*float64(n))); nPos < lo || nPos > hi {
							t.Fatalf("%s: %d of %d positives uploaded, β ∈ [%v, %v] allows [%d, %d]", label, nPos, n, w.betaMin, w.betaMax, lo, hi)
						}
						switch gamma := nNeg / nPos; {
						case nNeg == gamma*nPos && gamma >= w.gammaMin && gamma <= w.gammaMax:
							gammaSeen[gamma]++
						case nNeg == pool && pool < w.gammaMax*nPos:
							capped++
						default:
							t.Fatalf("%s: %d negatives for %d positives is no integer γ ∈ [%d, %d], and the pool holds %d",
								label, nNeg, nPos, w.gammaMin, w.gammaMax, pool)
						}
						uploads++
						sumFrac += float64(nPos) / float64(n)
						sumInv += 1 / float64(n)
					}
				}
			}
			if !sampled {
				continue
			}
			for gamma := w.gammaMin; gamma <= w.gammaMax; gamma++ {
				if gammaSeen[gamma] == 0 {
					t.Fatalf("%s window %d: γ = %d never drawn in %d uploads (%v)", defense, wi, gamma, uploads, gammaSeen)
				}
			}
			if capped == 0 {
				t.Fatalf("%s window %d: no upload was capped by its negative pool; NegRatio 2 exists to do that", defense, wi)
			}
			count := float64(uploads)
			mean, want := sumFrac/count, (w.betaMin+w.betaMax)/2
			slack := 4 * (w.betaMax - w.betaMin) / math.Sqrt(12*count)
			lo, hi := want-slack, want+slack+sumInv/count
			if mean < lo || mean > hi {
				t.Fatalf("%s window %d: mean nPos/|Dᵢ| over %d uploads is %.4f, E[β] = %.3f allows [%.4f, %.4f]",
					defense, wi, uploads, mean, want, lo, hi)
			}
			t.Logf("%s window %d: %d uploads, mean nPos/|Dᵢ| %.4f in [%.4f, %.4f], γ counts %v, %d capped",
				defense, wi, uploads, mean, lo, hi, gammaSeen, capped)
		}
	}
}

// TestUploadPredictionsAreWellFormed states on the live path what the
// networked coordinator refuses an upload for, so that it can never refuse an
// honest client: every prediction a client uploads names that client, an
// item in [0, NumItems) and a score in [0, 1] — under every defense (Laplace
// noise and the swap included) — as decoded on the server's side of the
// wire, 12 bytes a triple.
func TestUploadPredictionsAreWellFormed(t *testing.T) {
	sp := tinySplit(t)
	for _, defense := range []privacy.Defense{
		privacy.DefenseNone, privacy.DefenseLDP, privacy.DefenseSampling, privacy.DefenseSamplingSwap,
	} {
		cfg := fastConfig(models.KindMF)
		cfg.ClientModel, cfg.ClientEpochs, cfg.Rounds = models.KindMF, 1, 3
		cfg.Privacy.Defense = defense
		tr := propertyTrainer(t, sp, cfg)
		checked := 0
		for round := 0; round < cfg.Rounds; round++ {
			for _, o := range observeRound(tr, round, nil, nil).outcomes {
				if o.UploadBytes != comm.PredictionWireSize*len(o.Upload) {
					t.Fatalf("%s round %d: user %d's %d predictions cost %d bytes, want 12 each", defense, round, o.ID, len(o.Upload), o.UploadBytes)
				}
				for _, p := range o.Upload {
					if p.User != o.ID || p.Item < 0 || p.Item >= sp.NumItems || !(p.Score >= 0 && p.Score <= 1) {
						t.Fatalf("%s round %d: user %d uploads %+v", defense, round, o.ID, p)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no prediction was uploaded", defense)
		}
	}
}

// userGraphRow returns the items user u is connected to in the server's
// maintained graph (nil for non-graph servers). Edge values are normalised
// by item degrees, which other users' uploads move; membership is the
// user's own state.
func userGraphRow(sv *Server, u int) []int {
	if sv.inc == nil {
		return nil
	}
	adj := sv.inc.AdjInto(nil, 1)
	return slices.Clone(adj.ColIdx[adj.RowPtr[u]:adj.RowPtr[u+1]])
}

// TestDroppedClientChangesNoServerState is property (d): whether a client
// drops before training (FaultPlan) or its finished upload is lost in
// transit, the server's state for that user — their graph row — is what it
// was, the confidence counters count only what arrived, and the user gets no
// dispersal.
func TestDroppedClientChangesNoServerState(t *testing.T) {
	sp := tinySplit(t)
	s := rng.New(7).Derive("dropped-client")
	for _, server := range []models.Kind{models.KindMF, models.KindNeuMF, models.KindNGCF, models.KindLightGCN} {
		cfg := propertyConfig(s, server, DisperseConfHard, 0.5)
		cfg.Rounds = 4
		cfg.ClientFraction = 1
		cfg.Faults = FaultPlan{DropoutRate: 0.3, TruncateRate: 0.3}
		tr := propertyTrainer(t, sp, cfg)
		replay := newServerReplay(sp.NumItems)
		lost := s.Derive(string(server))
		for round := 0; round < cfg.Rounds; round++ {
			label := fmt.Sprintf("%s round %d", server, round)
			before := map[int][]int{} // dropped user -> graph row
			obs := observeRound(tr, round,
				func(int) bool { return round > 0 && lost.Bernoulli(0.2) },
				func(outcomes []ClientOutcome) {
					for _, o := range outcomes {
						if o.Dropped {
							before[o.ID] = userGraphRow(tr.server, o.ID)
						}
					}
				})
			if len(before) == 0 || len(before) == len(obs.cohort) {
				t.Fatalf("%s: %d of %d clients dropped; the round exercises nothing", label, len(before), len(obs.cohort))
			}
			for u, was := range before {
				if got := userGraphRow(tr.server, u); !slices.Equal(got, was) {
					t.Fatalf("%s: dropped user %d's graph row changed: %v -> %v", label, u, was, got)
				}
			}
			for _, d := range obs.dispersals {
				if _, dropped := before[d.ID]; dropped {
					t.Fatalf("%s: dropped user %d received a dispersal", label, d.ID)
				}
			}
			replay.absorb(obs.outcomes)
			requireServerMatchesReplay(t, label, tr, replay)
		}
	}
}

// TestSelectIsPureFunctionOfSeedAndRound is property (e): the cohort of
// round r depends on (seed, r) alone — not on call order, repetition, or how
// many rounds the engine has closed in between.
func TestSelectIsPureFunctionOfSeedAndRound(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindLightGCN)
	cfg.ClientModel = models.KindMF
	cfg.ClientFraction = 0.4
	cfg.Disperse = DisperseAllRandom // the arm that draws per-round streams
	const rounds = 6

	fresh, err := NewRoundEngine(sp.NumUsers, sp.NumItems, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, rounds)
	for r := range want {
		want[r] = fresh.Select(r)
		if len(want[r]) != int(cfg.ClientFraction*float64(sp.NumUsers)) {
			t.Fatalf("round %d cohort has %d users", r, len(want[r]))
		}
		seen := map[int]bool{}
		for _, u := range want[r] {
			if u < 0 || u >= sp.NumUsers || seen[u] {
				t.Fatalf("round %d cohort %v is not a set of users", r, want[r])
			}
			seen[u] = true
		}
	}
	if slices.Equal(want[0], want[1]) && slices.Equal(want[1], want[2]) {
		t.Fatal("cohorts do not vary with the round")
	}

	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := rng.New(3).Derive("select-order")
	for step := 0; step < 40; step++ {
		if step%10 == 5 {
			tr.RunRound(step / 10) // interleave real rounds on the same engine
		}
		r := order.Intn(rounds)
		if got := tr.engine.Select(r); !slices.Equal(got, want[r]) {
			t.Fatalf("step %d: Select(%d) = %v, a fresh engine says %v", step, r, got, want[r])
		}
	}

	cfg.Seed++
	other, err := NewRoundEngine(sp.NumUsers, sp.NumItems, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for r := range want {
		if slices.Equal(other.Select(r), want[r]) {
			same++
		}
	}
	if same == rounds {
		t.Fatal("cohorts do not depend on the seed")
	}
}

// TestQualityFloorML100KSmall is property (f): a refactor that stays
// self-consistent but drifts from the paper fails here. It repeats the first
// ten rounds of the PTF-FedRec rows of the repo's own table3 run on
// ml-100k-small (§IV-D defaults, small-scale batch sizes and step; the run's
// twenty rounds end at 0.244 / 0.253 / 0.356) and requires each server
// model's NDCG@20 inside a band around that run's — far above the ≈0.03 of a
// random ranking, below the centralized models' ≈0.4 — plus the part of
// Table III's server-model ordering that run reproduces: the LightGCN server
// beats the NeuMF and NGCF servers. (The paper's NGCF > NeuMF is within 0.01
// here and is not pinned.)
func TestQualityFloorML100KSmall(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("trains three servers for ten rounds on ml-100k-small")
	}
	bands := map[models.Kind][2]float64{ // round ten of table3: 0.212, 0.204, 0.309
		models.KindNeuMF:    {0.15, 0.28},
		models.KindNGCF:     {0.14, 0.27},
		models.KindLightGCN: {0.22, 0.40},
	}
	sp := data.StreamSplit(data.ML100KSmall, 1, 0.2)
	ndcg := map[models.Kind]float64{}
	for _, server := range []models.Kind{models.KindNeuMF, models.KindNGCF, models.KindLightGCN} {
		cfg := DefaultConfig(server)
		cfg.ClientBatch, cfg.ServerBatch, cfg.LR = 16, 256, 2e-3
		cfg.Rounds = 10
		tr, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		ndcg[server] = h.Final.NDCG
		t.Logf("%s server: ndcg@20 %.4f", server, h.Final.NDCG)
		if band := bands[server]; h.Final.NDCG < band[0] || h.Final.NDCG > band[1] {
			t.Errorf("%s server: NDCG@20 = %.4f, outside the band %v", server, h.Final.NDCG, band)
		}
	}
	if l := ndcg[models.KindLightGCN]; l <= ndcg[models.KindNeuMF] || l <= ndcg[models.KindNGCF] {
		t.Errorf("LightGCN server (%.4f) must beat the NeuMF (%.4f) and NGCF (%.4f) servers",
			l, ndcg[models.KindNeuMF], ndcg[models.KindNGCF])
	}
}
