package privacy

import (
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/rng"
)

func mkPreds(posScores, negScores []float64) ([]comm.Prediction, func(int) bool) {
	var preds []comm.Prediction
	posSet := map[int]bool{}
	id := 0
	for _, sc := range posScores {
		preds = append(preds, comm.Prediction{User: 0, Item: id, Score: sc})
		posSet[id] = true
		id++
	}
	for _, sc := range negScores {
		preds = append(preds, comm.Prediction{User: 0, Item: id, Score: sc})
		id++
	}
	return preds, func(v int) bool { return posSet[v] }
}

func TestSampleUploadRespectsBetaGamma(t *testing.T) {
	s := rng.New(1)
	pos := make([]int, 100)
	neg := make([]int, 1000)
	for i := range pos {
		pos[i] = i
	}
	for i := range neg {
		neg[i] = 100 + i
	}
	cfg := DefaultConfig()
	for trial := 0; trial < 50; trial++ {
		sp, sn, beta, gamma := SampleUpload(s, pos, neg, cfg)
		if beta < cfg.BetaMin || beta > cfg.BetaMax {
			t.Fatalf("beta = %v", beta)
		}
		if gamma < cfg.GammaMin || gamma > cfg.GammaMax {
			t.Fatalf("gamma = %v", gamma)
		}
		wantPos := int(math.Ceil(beta * 100))
		if len(sp) != wantPos {
			t.Fatalf("selected %d positives, want %d (beta=%v)", len(sp), wantPos, beta)
		}
		if len(sn) != gamma*len(sp) {
			t.Fatalf("selected %d negatives, want %d", len(sn), gamma*len(sp))
		}
	}
}

func TestSampleUploadRatioVaries(t *testing.T) {
	// The whole point of sampling: the positive fraction of the upload is no
	// longer the fixed 1/(1+4) the server could exploit.
	s := rng.New(2)
	pos := make([]int, 50)
	neg := make([]int, 500)
	for i := range pos {
		pos[i] = i
	}
	for i := range neg {
		neg[i] = 50 + i
	}
	fracs := map[float64]bool{}
	for trial := 0; trial < 30; trial++ {
		sp, sn, _, _ := SampleUpload(s, pos, neg, DefaultConfig())
		frac := float64(len(sp)) / float64(len(sp)+len(sn))
		fracs[math.Round(frac*100)/100] = true
	}
	if len(fracs) < 3 {
		t.Fatalf("positive fraction nearly constant across uploads: %v", fracs)
	}
}

func TestSampleUploadSmallPools(t *testing.T) {
	s := rng.New(3)
	sp, sn, _, _ := SampleUpload(s, []int{1}, []int{2}, DefaultConfig())
	if len(sp) != 1 || len(sn) != 1 {
		t.Fatalf("small pool: %v %v", sp, sn)
	}
	sp, sn, _, _ = SampleUpload(s, nil, []int{2, 3}, DefaultConfig())
	if len(sp) != 0 {
		t.Fatalf("no positives should select none, got %v", sp)
	}
	_ = sn
}

func TestSwapPerturbsTopPositives(t *testing.T) {
	preds, isPos := mkPreds([]float64{0.95, 0.9, 0.85, 0.8}, []float64{0.1, 0.2, 0.3, 0.4})
	s := rng.New(4)
	swapped := Swap(s, preds, isPos, 0.5)
	if swapped != 2 {
		t.Fatalf("swapped %d, want ceil(0.5*4) = 2", swapped)
	}
	// Multiset of scores unchanged (swap only exchanges).
	var sum float64
	for _, p := range preds {
		sum += p.Score
	}
	if math.Abs(sum-(0.95+0.9+0.85+0.8+0.1+0.2+0.3+0.4)) > 1e-12 {
		t.Fatal("swap changed the score multiset")
	}
	// At least one of the top-2 positives now carries a low score.
	lowered := 0
	for i, p := range preds {
		if i < 2 && p.Score < 0.5 {
			lowered++
		}
	}
	if lowered == 0 {
		t.Fatal("no top positive was lowered")
	}
}

func TestSwapNoNegatives(t *testing.T) {
	preds, isPos := mkPreds([]float64{0.9}, nil)
	if got := Swap(rng.New(5), preds, isPos, 0.5); got != 0 {
		t.Fatalf("swap with no negatives = %d", got)
	}
}

func TestAddLaplaceClamps(t *testing.T) {
	preds, _ := mkPreds([]float64{0.99, 0.01, 0.5}, []float64{0.5})
	AddLaplace(rng.New(6), preds, 2.0)
	for _, p := range preds {
		if p.Score < 0 || p.Score > 1 {
			t.Fatalf("LDP score out of range: %v", p.Score)
		}
	}
}

func TestAddLaplaceActuallyPerturbs(t *testing.T) {
	preds, _ := mkPreds([]float64{0.5, 0.5, 0.5, 0.5}, nil)
	AddLaplace(rng.New(7), preds, 0.5)
	moved := 0
	for _, p := range preds {
		if p.Score != 0.5 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("LDP left all scores unchanged")
	}
}

func TestTopGuessAttackPerfectOnCleanUpload(t *testing.T) {
	// 2 positives with top scores among 10 items; fraction 0.2 -> guess 2.
	preds, isPos := mkPreds([]float64{0.9, 0.8}, []float64{0.1, 0.2, 0.3, 0.15, 0.25, 0.05, 0.35, 0.12})
	guessed := TopGuessAttack(new(GuessBuffer), preds, 0.2)
	if f1 := AttackF1(preds, guessed, isPos); f1 != 1 {
		t.Fatalf("clean-upload attack F1 = %v, want 1", f1)
	}
}

func TestTopGuessAttackDefeatedBySwap(t *testing.T) {
	posScores := []float64{0.99, 0.98, 0.97, 0.96}
	negScores := []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08,
		0.09, 0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16}
	preds, isPos := mkPreds(posScores, negScores)
	var buf GuessBuffer
	before := AttackF1(preds, TopGuessAttack(&buf, preds, 0.2), isPos)
	Swap(rng.New(8), preds, isPos, 0.5)
	after := AttackF1(preds, TopGuessAttack(&buf, preds, 0.2), isPos)
	if before != 1 {
		t.Fatalf("pre-swap F1 = %v", before)
	}
	if after >= before {
		t.Fatalf("swap did not reduce attack F1: %v -> %v", before, after)
	}
}

func TestTopGuessAttackMinimumOneGuess(t *testing.T) {
	preds, _ := mkPreds([]float64{0.9}, []float64{0.1})
	var buf GuessBuffer
	if got := TopGuessAttack(&buf, preds, 0.01); len(got) != 1 {
		t.Fatalf("guessed %d items, want 1", len(got))
	}
	if got := TopGuessAttack(&buf, nil, 0.2); len(got) != 0 {
		t.Fatal("empty upload should guess nothing")
	}
}

func TestAmplifyBySampling(t *testing.T) {
	eps, delta := AmplifyBySampling(1.0, 1e-5, 0.1)
	if eps >= 1.0 || eps <= 0 {
		t.Fatalf("amplified eps = %v, want in (0,1)", eps)
	}
	if math.Abs(delta-1e-6) > 1e-12 {
		t.Fatalf("amplified delta = %v", delta)
	}
	if e, d := AmplifyBySampling(1, 1e-5, 1.5); e != 1 || d != 1e-5 {
		t.Fatal("q>=1 should be identity")
	}
	if e, d := AmplifyBySampling(1, 1e-5, 0); e != 0 || d != 0 {
		t.Fatal("q=0 should be zero")
	}
}

func TestParseDefense(t *testing.T) {
	for _, s := range []string{"none", "ldp", "sampling", "sampling+swap"} {
		if _, ok := ParseDefense(s); !ok {
			t.Fatalf("ParseDefense(%q) failed", s)
		}
	}
	if _, ok := ParseDefense("xyz"); ok {
		t.Fatal("bad defense accepted")
	}
}

// topGuessAttackOracle and attackF1Oracle are the set forms TopGuessAttack
// and AttackF1 replaced, kept as their reference: the guess as a set of
// items, the truth as a second set, F1 over the two sets' sizes.
func topGuessAttackOracle(preds []comm.Prediction, posFraction float64) map[int]bool {
	n := int(math.Round(posFraction * float64(len(preds))))
	if n < 1 && len(preds) > 0 {
		n = 1
	}
	scores := make([]float64, len(preds))
	for i, p := range preds {
		scores[i] = p.Score
	}
	guessed := map[int]bool{}
	for _, idx := range metrics.TopKInto(nil, scores, n) {
		guessed[preds[idx].Item] = true
	}
	return guessed
}

func attackF1Oracle(preds []comm.Prediction, guessed map[int]bool, isPositive func(item int) bool) float64 {
	truth := map[int]bool{}
	for _, p := range preds {
		if isPositive(p.Item) {
			truth[p.Item] = true
		}
	}
	if len(guessed) == 0 || len(truth) == 0 {
		return 0
	}
	tp := 0
	for v := range guessed {
		if truth[v] {
			tp++
		}
	}
	if tp == 0 {
		return 0
	}
	precision := float64(tp) / float64(len(guessed))
	recall := float64(tp) / float64(len(truth))
	return 2 * precision * recall / (precision + recall)
}

// TestAttackMatchesSetOracle builds uploads the way a client does under every
// defense — the whole pool, or SampleUpload's draw, then the swap or the
// Laplace noise — and checks that the guessed positions name exactly the
// oracle's guessed items and that the counted F1 has the set F1's bits. The
// counts equal the set sizes because an upload names each item once: fed's
// TestUploadInvariants pins that of the clients' real uploads under every
// defense, and this test checks it of each upload it builds.
func TestAttackMatchesSetOracle(t *testing.T) {
	s := rng.New(9)
	var buf GuessBuffer
	for trial := 0; trial < 200; trial++ {
		nPos, nNeg := 1+s.Intn(30), s.Intn(120)
		pool := s.Perm(nPos + nNeg + s.Intn(50))
		positives, negatives := pool[:nPos], pool[nPos:nPos+nNeg]
		isPos := func(v int) bool { return slices.Contains(positives, v) }
		for _, d := range []Defense{DefenseNone, DefenseLDP, DefenseSampling, DefenseSamplingSwap} {
			cfg := DefaultConfig()
			cfg.Defense = d
			items := append(slices.Clone(positives), negatives...)
			if d == DefenseSampling || d == DefenseSamplingSwap {
				sp, sn, _, _ := SampleUpload(s, positives, negatives, cfg)
				items = append(sp, sn...)
			}
			preds := make([]comm.Prediction, len(items))
			for i, v := range items {
				// Coarse scores, so the selection also meets ties.
				preds[i] = comm.Prediction{Item: v, Score: float64(s.Intn(8)) / 8}
			}
			switch d {
			case DefenseSamplingSwap:
				Swap(s, preds, isPos, cfg.Lambda)
			case DefenseLDP:
				AddLaplace(s, preds, cfg.LaplaceScale)
			}
			seen := map[int]bool{}
			for _, p := range preds {
				if seen[p.Item] {
					t.Fatalf("trial %d, %s: item %d uploaded twice", trial, d, p.Item)
				}
				seen[p.Item] = true
			}
			for _, frac := range []float64{0.01, 0.2, 0.5, 1} {
				guessed := TopGuessAttack(&buf, preds, frac)
				want := topGuessAttackOracle(preds, frac)
				got := map[int]bool{}
				for _, i := range guessed {
					got[preds[i].Item] = true
				}
				if !maps.Equal(got, want) || len(guessed) != len(want) {
					t.Fatalf("trial %d, %s, fraction %v: guessed %v, oracle %v", trial, d, frac, got, want)
				}
				f1, wantF1 := AttackF1(preds, guessed, isPos), attackF1Oracle(preds, want, isPos)
				if math.Float64bits(f1) != math.Float64bits(wantF1) {
					t.Fatalf("trial %d, %s, fraction %v: F1 %v, oracle %v", trial, d, frac, f1, wantF1)
				}
			}
		}
	}
}

// TestTopGuessAttackReusesBuffer pins the attack at zero allocations once
// its buffer has grown to the upload.
func TestTopGuessAttackReusesBuffer(t *testing.T) {
	preds, isPos := mkPreds([]float64{0.9, 0.4, 0.7}, []float64{0.1, 0.8, 0.3, 0.2, 0.6, 0.5})
	var buf GuessBuffer
	run := func() { AttackF1(preds, TopGuessAttack(&buf, preds, 0.2), isPos) }
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a warmed attack allocates %v times, want 0", allocs)
	}
}

// swapOracle is Swap as it was before it shared one index list: the two
// lists grown by append and the positives ordered by sort.SliceStable.
func swapOracle(s *rng.Stream, preds []comm.Prediction, isPositive func(item int) bool, lambda float64) int {
	var posIdx, negIdx []int
	for i, p := range preds {
		if isPositive(p.Item) {
			posIdx = append(posIdx, i)
		} else {
			negIdx = append(negIdx, i)
		}
	}
	if len(posIdx) == 0 || len(negIdx) == 0 {
		return 0
	}
	sort.SliceStable(posIdx, func(a, b int) bool { return preds[posIdx[a]].Score > preds[posIdx[b]].Score })
	n := int(math.Ceil(lambda * float64(len(posIdx))))
	if n > len(posIdx) {
		n = len(posIdx)
	}
	for k := 0; k < n; k++ {
		pi := posIdx[k]
		ni := negIdx[s.Intn(len(negIdx))]
		preds[pi].Score, preds[ni].Score = preds[ni].Score, preds[pi].Score
	}
	return n
}

// TestSwapMatchesOracle runs Swap and its oracle on copies of the same
// uploads, positives and negatives interleaved and scores coarse enough to
// tie, and requires the same count, the same scores in the same places and
// the same draws from the stream.
func TestSwapMatchesOracle(t *testing.T) {
	s := rng.New(10)
	for trial := 0; trial < 300; trial++ {
		n := s.Intn(40)
		preds := make([]comm.Prediction, n)
		pos := map[int]bool{}
		for i := range preds {
			preds[i] = comm.Prediction{Item: i, Score: float64(s.Intn(5)) / 4}
			if s.Bernoulli(0.3) {
				pos[i] = true
			}
		}
		isPos := func(v int) bool { return pos[v] }
		lambda := []float64{0, 0.1, 0.5, 1}[trial%4]
		got, want := slices.Clone(preds), slices.Clone(preds)
		gs, ws := rng.New(uint64(trial)), rng.New(uint64(trial))
		if a, b := Swap(gs, got, isPos, lambda), swapOracle(ws, want, isPos, lambda); a != b {
			t.Fatalf("trial %d: swapped %d, oracle %d", trial, a, b)
		}
		if !slices.Equal(got, want) || gs.Float64() != ws.Float64() {
			t.Fatalf("trial %d: Swap left %v, oracle %v", trial, got, want)
		}
	}
}
