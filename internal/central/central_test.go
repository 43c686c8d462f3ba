package central

import (
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

func tinySplit(t *testing.T) *data.Split {
	t.Helper()
	d := data.Generate(data.Tiny, 42)
	return d.Split(rng.New(1), 0.2)
}

func fastConfig(kind models.Kind) Config {
	cfg := DefaultConfig(kind)
	cfg.Epochs = 8
	cfg.Dim = 8
	cfg.LR = 0.01
	cfg.BatchSize = 64
	return cfg
}

func TestCentralizedTrainingAllModels(t *testing.T) {
	sp := tinySplit(t)
	for _, kind := range []models.Kind{models.KindNeuMF, models.KindNGCF, models.KindLightGCN} {
		tr, err := NewTrainer(sp, fastConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		first := tr.TrainEpoch()
		var last float64
		for e := 0; e < 7; e++ {
			last = tr.TrainEpoch()
		}
		if last >= first {
			t.Fatalf("%s: loss did not decrease (%v -> %v)", kind, first, last)
		}
		res := tr.Evaluate()
		if res.Users == 0 {
			t.Fatalf("%s: no users evaluated", kind)
		}
		if res.Recall < 0 || res.Recall > 1 {
			t.Fatalf("%s: recall = %v", kind, res.Recall)
		}
	}
}

func TestCentralizedBeatsRandomRanking(t *testing.T) {
	// A trained centralized model must comfortably beat a random scorer.
	sp := tinySplit(t)
	tr, err := NewTrainer(sp, fastConfig(models.KindLightGCN))
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	trained := tr.Evaluate()

	// Random baseline: expected recall@20 ≈ 20 / numItems candidates.
	if trained.Recall < 20.0/float64(sp.NumItems) {
		t.Fatalf("trained recall %v below random floor", trained.Recall)
	}
}

func TestNewTrainerRejectsBadModel(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig("bogus")
	if _, err := NewTrainer(sp, cfg); err == nil {
		t.Fatal("bogus model accepted")
	}
}

func TestRunReturnsFinalLoss(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	cfg.Epochs = 2
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loss := tr.Run(); loss <= 0 {
		t.Fatalf("final loss = %v", loss)
	}
	if tr.Model() == nil {
		t.Fatal("nil model")
	}
}
