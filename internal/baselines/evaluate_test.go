package baselines

import (
	"slices"
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// naiveEval is the score-everything-then-sort evaluation: per evaluated user,
// every non-train item's probability from probs, ranked by metrics.TopK, and
// Recall@k / NDCG@k averaged in user order.
func naiveEval(sp *data.Split, k int, probs func(u int, items []int) []float64) eval.Result {
	var agg metrics.RankEval
	for u := 0; u < sp.NumUsers; u++ {
		if len(sp.Test[u]) == 0 {
			continue
		}
		var cand []int
		for v := 0; v < sp.NumItems; v++ {
			if !sp.InTrain(u, v) {
				cand = append(cand, v)
			}
		}
		var ranked []int
		for _, idx := range metrics.TopK(probs(u, cand), k) {
			ranked = append(ranked, cand[idx])
		}
		relevant := map[int]bool{}
		for _, v := range sp.Test[u] {
			relevant[v] = true
		}
		agg.AddUser(metrics.RecallAtK(ranked, relevant, k), metrics.NDCGAtK(ranked, relevant, k))
	}
	r, n := agg.Mean()
	return eval.Result{Recall: r, NDCG: n, Users: agg.Users}
}

// sharedItemsProbs is FCF's and FedMF's per-pair arithmetic: σ of the user's
// private vector dotted with the shared item row.
func sharedItemsProbs(s *sharedItems) func(u int, items []int) []float64 {
	return func(u int, items []int) []float64 {
		out := make([]float64, len(items))
		for i, v := range items {
			out[i] = nn.Sigmoid(tensor.Dot(s.users[u].w, s.items.Row(v)))
		}
		return out
	}
}

// metaMFProbs is MetaMF's per-pair arithmetic: σ of the user's private vector
// against the item embedding the meta-network generates for them.
func metaMFProbs(m *MetaMF) func(u int, items []int) []float64 {
	return func(u int, items []int) []float64 {
		_, _, _, _, scale, shift := m.generate(u)
		out := make([]float64, len(items))
		p := m.users[u].w
		for i, v := range items {
			b := m.base.W.Row(v)
			var s float64
			for k := 0; k < m.cfg.Dim; k++ {
				s += p[k] * (b[k]*(1+scale[k]) + shift[k])
			}
			out[i] = nn.Sigmoid(s)
		}
		return out
	}
}

// TestEvaluateMatchesNaive runs one round of FCF, FedMF and MetaMF on a small
// split and holds each one's Evaluate, at 1 and 2 workers, bit for bit to the
// naive evaluation of its per-pair probabilities: the rank counter sees the
// baselines' logits, whose σ must be exactly those probabilities. Metrics
// rarely move with a last-bit change, so σ of one every-user × every-item
// block is compared with the probabilities entry by entry first.
func TestEvaluateMatchesNaive(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig()
	cfg.Rounds = 1
	fcf, err := NewFCF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fedmf, err := NewFedMF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := NewMetaMF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		b     FederatedBaseline
		f     *federation
		probs func(u int, items []int) []float64
	}{
		{"FCF", fcf, fcf.federation, sharedItemsProbs(fcf.sharedItems)},
		{"FedMF", fedmf, fedmf.federation, sharedItemsProbs(fedmf.sharedItems)},
		{"MetaMF", meta, meta.federation, metaMFProbs(meta)},
	} {
		c.b.RunRound(0)
		users, items := make([]int, sp.NumUsers), make([]int, sp.NumItems)
		for u := range users {
			users[u] = u
		}
		for v := range items {
			items[v] = v
		}
		block := tensor.New(len(users), len(items))
		c.b.(models.MultiBlockScorer).ScoreUsersBlockLogitsInto(block, users, items)
		for u := range users {
			for v, p := range c.probs(u, items) {
				if got := nn.Sigmoid(block.At(u, v)); got != p {
					t.Fatalf("%s: σ(logit(%d, %d)) = %v, per-pair probability %v", c.name, u, v, got, p)
				}
			}
		}
		want := naiveEval(sp, eval.K, c.probs)
		if want.Users == 0 || want.Recall == 0 {
			t.Fatalf("%s: naive evaluation %+v has nothing to compare", c.name, want)
		}
		for _, workers := range []int{1, 2} {
			c.f.cfg.Workers = workers
			if got := c.b.Evaluate(); got != want {
				t.Fatalf("%s workers=%d: Evaluate %+v, naive %+v", c.name, workers, got, want)
			}
		}
	}
}

// TestMetaMFEvaluateRunsGeneratorOncePerUser bounds one Evaluate after the
// generator moved: the meta-network runs once per user, not once per block
// the rank counter scores a user in (the held-out items, then each item
// window), so Evaluate allocates at most one generate's worth per user plus
// the evaluator's own few.
func TestMetaMFEvaluateRunsGeneratorOncePerUser(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig()
	cfg.Rounds = 1
	cfg.Workers = 1
	m, err := NewMetaMF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.RunRound(0)
	perGenerate := testing.AllocsPerRun(10, func() { m.generate(0) })
	got := testing.AllocsPerRun(5, func() {
		m.modFresh = false
		m.Evaluate()
	})
	if limit := perGenerate*float64(sp.NumUsers) + 32; got > limit {
		t.Fatalf("Evaluate allocates %.0f, want at most %.0f (%.0f per generate, %d users)",
			got, limit, perGenerate, sp.NumUsers)
	}
}

// regenerateRound is MetaMF's round as it ran before backprop reused each
// download's meta-network run: backprop's users run the meta-network again,
// on the same weights, before backprop reads them.
func regenerateRound(m *MetaMF, round int) {
	if m.passes == nil {
		m.passes = make([]metaPass, m.split.NumUsers)
	}
	m.round(round, func(u int) *tensor.Matrix {
		_, _, _, _, scale, shift := m.generate(u)
		return m.generatedItems(scale, shift)
	}, func(idx []int, grads [][]float64) {
		for _, u := range idx {
			x, h1, a1, _, scale, _ := m.generate(u)
			m.passes[u] = metaPass{x: x, h1: h1, a1: a1, scale: scale}
		}
		m.backprop(idx, grads)
	})
}

// TestMetaMFRoundRunsGeneratorOncePerUser pins that a round runs the
// meta-network once per cohort user: backprop reuses the run the user's
// download made. Against rounds that run it again for backprop, every
// trained parameter stays bitwise the same, and a round allocates at least
// one generate's worth less per cohort user.
func TestMetaMFRoundRunsGeneratorOncePerUser(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig()
	cfg.Workers = 1
	once, err := NewMetaMF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := NewMetaMF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range cfg.Rounds {
		once.RunRound(r)
		regenerateRound(twice, r)
	}
	rows := func(m *MetaMF) [][]float64 {
		out := [][]float64{m.base.W.Data}
		for _, p := range append(m.l1.Params(), m.l2.Params()...) {
			out = append(out, p.W.Data)
		}
		for u := range sp.NumUsers {
			out = append(out, m.cv.Row(u), m.users[u].w)
		}
		return out
	}
	if !slices.EqualFunc(rows(once), rows(twice), slices.Equal) {
		t.Fatal("reusing the download's meta-network run moved the trained parameters")
	}

	perGenerate := testing.AllocsPerRun(10, func() { once.generate(0) })
	cohort := max(1, int(cfg.ClientFraction*float64(sp.NumUsers)))
	onceAllocs := testing.AllocsPerRun(3, func() { once.RunRound(cfg.Rounds) })
	twiceAllocs := testing.AllocsPerRun(3, func() { regenerateRound(twice, cfg.Rounds) })
	if saved := twiceAllocs - onceAllocs; saved < perGenerate*float64(cohort) {
		t.Fatalf("a round allocates %.0f, against %.0f when backprop reruns the meta-network: want at least %.0f (%.0f per generate, %d cohort users) fewer",
			onceAllocs, twiceAllocs, perGenerate*float64(cohort), perGenerate, cohort)
	}
	t.Logf("round allocations: %.0f once, %.0f twice (%.0f per generate, %d cohort users)", onceAllocs, twiceAllocs, perGenerate, cohort)
}
