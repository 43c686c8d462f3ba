package baselines

import (
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
		want := naiveEval(sp, cfg.EvalK, c.probs)
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
