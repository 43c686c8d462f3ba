package eval

import (
	"math"
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/rng"
)

func TestRankingPerfectOracle(t *testing.T) {
	d := data.Generate(data.Tiny, 3)
	sp := d.Split(rng.New(1), 0.2)
	// Oracle scores test items logit 1, everything else 0.
	oracle := logitFunc(func(u, v int) float64 {
		if sp.InTest(u, v) {
			return 1
		}
		return 0
	})
	res := RankingWorkers(oracle, sp, 20, 0)
	if res.Users == 0 {
		t.Fatal("no users evaluated")
	}
	// Every user has ≤20 test items at tiny scale, so the oracle is perfect.
	if math.Abs(res.Recall-1) > 1e-9 || math.Abs(res.NDCG-1) > 1e-9 {
		t.Fatalf("oracle metrics = %+v, want 1/1", res)
	}
}

func TestRankingAntiOracle(t *testing.T) {
	d := data.Generate(data.Tiny, 3)
	sp := d.Split(rng.New(1), 0.2)
	anti := logitFunc(func(u, v int) float64 {
		if sp.InTest(u, v) {
			return 0
		}
		return 1
	})
	res := RankingWorkers(anti, sp, 5, 0)
	if res.Recall > 0.01 {
		t.Fatalf("anti-oracle recall = %v, want ≈0", res.Recall)
	}
}

// TestRankingExcludesTrainItems scores every training positive above every
// held-out item, and held-out items above the rest: a train item counted as a
// candidate would push a held-out one down, so the oracle stays perfect only
// if none is.
func TestRankingExcludesTrainItems(t *testing.T) {
	d := data.Generate(data.Tiny, 3)
	sp := d.Split(rng.New(1), 0.2)
	trainOnTop := logitFunc(func(u, v int) float64 {
		switch {
		case sp.InTrain(u, v):
			return 2
		case sp.InTest(u, v):
			return 1
		}
		return 0
	})
	res := RankingWorkers(trainOnTop, sp, 20, 0)
	if res.Users == 0 || math.Abs(res.Recall-1) > 1e-9 || math.Abs(res.NDCG-1) > 1e-9 {
		t.Fatalf("train-on-top oracle metrics = %+v, want 1/1: training positives were ranked", res)
	}
}

func TestRankingSkipsUsersWithoutTest(t *testing.T) {
	// Single-interaction users keep their item in train; they must not
	// count toward the average.
	dd, err := data.NewDataset("t", 2, 10, [][2]int{
		{0, 1},
		{1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := dd.Split(rng.New(2), 0.2)
	res := RankingWorkers(logitFunc(func(u, v int) float64 { return 0 }), sp, 5, 0)
	if res.Users != 1 {
		t.Fatalf("users evaluated = %d, want 1", res.Users)
	}
}
