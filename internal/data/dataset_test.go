package data

import (
	"math"
	"testing"

	"ptffedrec/internal/rng"
)

func TestNewDatasetDedupAndSort(t *testing.T) {
	d, err := NewDataset("t", 2, 5, [][2]int{{0, 3}, {0, 1}, {0, 3}, {1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.UserItems[0]) != 2 || d.UserItems[0][0] != 1 || d.UserItems[0][1] != 3 {
		t.Fatalf("user 0 items = %v", d.UserItems[0])
	}
	if d.NumInteractions() != 3 {
		t.Fatalf("interactions = %d", d.NumInteractions())
	}
}

func TestNewDatasetRangeErrors(t *testing.T) {
	if _, err := NewDataset("t", 1, 1, [][2]int{{1, 0}}); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if _, err := NewDataset("t", 1, 1, [][2]int{{0, 5}}); err == nil {
		t.Fatal("out-of-range item accepted")
	}
}

func TestStats(t *testing.T) {
	d, _ := NewDataset("t", 2, 4, [][2]int{{0, 0}, {0, 1}, {1, 2}, {1, 3}})
	s := d.Stats()
	if s.Interactions != 4 || s.AvgLength != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.Density-0.5) > 1e-12 {
		t.Fatalf("density = %v", s.Density)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestHasInteraction(t *testing.T) {
	d, _ := NewDataset("t", 1, 10, [][2]int{{0, 2}, {0, 7}})
	if !d.HasInteraction(0, 7) || d.HasInteraction(0, 3) {
		t.Fatal("HasInteraction wrong")
	}
}

func TestItemPopularity(t *testing.T) {
	d, _ := NewDataset("t", 3, 3, [][2]int{{0, 0}, {1, 0}, {2, 0}, {0, 1}})
	pop := d.ItemPopularity()
	if pop[0] != 3 || pop[1] != 1 || pop[2] != 0 {
		t.Fatalf("popularity = %v", pop)
	}
}

func TestSplitProportions(t *testing.T) {
	pairs := make([][2]int, 0, 100)
	for v := 0; v < 100; v++ {
		pairs = append(pairs, [2]int{0, v})
	}
	d, _ := NewDataset("t", 1, 100, pairs)
	sp := d.Split(rng.New(1), 0.2)
	if len(sp.Test[0]) != 20 || len(sp.Train[0]) != 80 {
		t.Fatalf("split sizes train=%d test=%d", len(sp.Train[0]), len(sp.Test[0]))
	}
	// Disjoint and covering.
	seen := map[int]bool{}
	for _, v := range sp.Train[0] {
		seen[v] = true
	}
	for _, v := range sp.Test[0] {
		if seen[v] {
			t.Fatalf("item %d in both splits", v)
		}
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatalf("split lost items: %d", len(seen))
	}
}

// TestSplitKeepsOneTrainItem pins the splitter's two guards: a user with no
// items stays empty on both sides, and a test fraction that would hold out
// every item is clamped so each non-empty user keeps exactly one train item.
func TestSplitKeepsOneTrainItem(t *testing.T) {
	// User 0 has one item, user 1 none, user 2 four.
	d, _ := NewDataset("t", 3, 6, [][2]int{{0, 0}, {2, 1}, {2, 2}, {2, 4}, {2, 5}})
	for _, frac := range []float64{0.99, 1} {
		sp := d.Split(rng.New(2), frac)
		if len(sp.Train[0]) != 1 || len(sp.Test[0]) != 0 {
			t.Fatalf("frac %v: single-interaction split train=%v test=%v", frac, sp.Train[0], sp.Test[0])
		}
		if sp.Train[1] != nil || sp.Test[1] != nil {
			t.Fatalf("frac %v: empty user split train=%v test=%v", frac, sp.Train[1], sp.Test[1])
		}
		if len(sp.Train[2]) != 1 || len(sp.Test[2]) != 3 {
			t.Fatalf("frac %v: four-item split train=%v test=%v", frac, sp.Train[2], sp.Test[2])
		}
	}
}

func TestSplitMembership(t *testing.T) {
	d, _ := NewDataset("t", 1, 10, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	sp := d.Split(rng.New(3), 0.2)
	for _, v := range sp.Train[0] {
		if !sp.InTrain(0, v) {
			t.Fatalf("InTrain(%d) false", v)
		}
	}
	for _, v := range sp.Test[0] {
		if !sp.InTest(0, v) || sp.InTrain(0, v) {
			t.Fatalf("test item %d misclassified", v)
		}
	}
}

func TestSampleNegativesExcludesInteracted(t *testing.T) {
	d, _ := NewDataset("t", 1, 50, [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}})
	sp := d.Split(rng.New(4), 0.2)
	negs := sp.SampleNegativesN(rng.New(5), 0, len(sp.Train[0])*NegRatio)
	if len(negs) != len(sp.Train[0])*4 {
		t.Fatalf("neg count = %d", len(negs))
	}
	for _, v := range negs {
		if sp.InTrain(0, v) || sp.InTest(0, v) {
			t.Fatalf("negative %d is an interacted item", v)
		}
	}
	// Distinct.
	seen := map[int]bool{}
	for _, v := range negs {
		if seen[v] {
			t.Fatalf("duplicate negative %d", v)
		}
		seen[v] = true
	}
}

func TestSampleNegativesExhaustsUniverse(t *testing.T) {
	d, _ := NewDataset("t", 1, 6, [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}})
	sp := d.Split(rng.New(6), 0.25)
	negs := sp.SampleNegativesN(rng.New(7), 0, 100)
	if len(negs) != 2 {
		t.Fatalf("want the 2 free items, got %v", negs)
	}
}

func TestSampleNegativesZero(t *testing.T) {
	d, _ := NewDataset("t", 1, 6, [][2]int{{0, 0}})
	sp := d.Split(rng.New(8), 0.2)
	if got := sp.SampleNegativesN(rng.New(9), 0, 0); got != nil {
		t.Fatalf("want nil, got %v", got)
	}
}

func TestSplitDeterministic(t *testing.T) {
	d := Generate(Tiny, 1)
	a := d.Split(rng.New(10), 0.2)
	b := d.Split(rng.New(10), 0.2)
	for u := range a.Train {
		if len(a.Train[u]) != len(b.Train[u]) {
			t.Fatal("split not deterministic")
		}
		for i := range a.Train[u] {
			if a.Train[u][i] != b.Train[u][i] {
				t.Fatal("split not deterministic")
			}
		}
	}
}
