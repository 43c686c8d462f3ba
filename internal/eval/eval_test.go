package eval

import (
	"math"
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

func TestRankingPerfectOracle(t *testing.T) {
	d := data.Generate(data.Tiny, 3)
	sp := d.Split(rng.New(1), 0.2)
	// Oracle scores test items 1, everything else 0.
	oracle := models.ScorerFunc(func(u int, items []int) []float64 {
		out := make([]float64, len(items))
		for i, v := range items {
			if sp.InTest(u, v) {
				out[i] = 1
			}
		}
		return out
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
	anti := models.ScorerFunc(func(u int, items []int) []float64 {
		out := make([]float64, len(items))
		for i, v := range items {
			if sp.InTest(u, v) {
				out[i] = 0
			} else {
				out[i] = 1
			}
		}
		return out
	})
	res := RankingWorkers(anti, sp, 5, 0)
	if res.Recall > 0.01 {
		t.Fatalf("anti-oracle recall = %v, want ≈0", res.Recall)
	}
}

func TestRankingExcludesTrainItems(t *testing.T) {
	d := data.Generate(data.Tiny, 3)
	sp := d.Split(rng.New(1), 0.2)
	sawTrain := false
	probe := models.ScorerFunc(func(u int, items []int) []float64 {
		for _, v := range items {
			if sp.InTrain(u, v) {
				sawTrain = true
			}
		}
		return make([]float64, len(items))
	})
	RankingWorkers(probe, sp, 20, 0)
	if sawTrain {
		t.Fatal("candidate list contained training positives")
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
	res := RankingWorkers(models.ScorerFunc(func(u int, items []int) []float64 {
		return make([]float64, len(items))
	}), sp, 5, 0)
	if res.Users != 1 {
		t.Fatalf("users evaluated = %d, want 1", res.Users)
	}
}
