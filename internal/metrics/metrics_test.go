package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func rel(items ...int) map[int]bool {
	m := map[int]bool{}
	for _, v := range items {
		m[v] = true
	}
	return m
}

func TestRecallAtK(t *testing.T) {
	ranked := []int{5, 3, 9, 1, 7}
	if got := RecallAtK(ranked, rel(3, 9, 100), 3); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("recall = %v", got)
	}
	if got := RecallAtK(ranked, rel(), 3); got != 0 {
		t.Fatal("empty relevant should give 0")
	}
	if got := RecallAtK(ranked, rel(5), 10); got != 1 {
		t.Fatal("k beyond list length should clamp")
	}
}

func TestNDCGPerfectRanking(t *testing.T) {
	if got := NDCGAtK([]int{1, 2, 3}, rel(1, 2, 3), 3); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect NDCG = %v", got)
	}
}

func TestNDCGOrderSensitive(t *testing.T) {
	top := NDCGAtK([]int{1, 0, 0}, rel(1), 3)
	bottom := NDCGAtK([]int{0, 0, 1}, rel(1), 3)
	if top <= bottom {
		t.Fatalf("NDCG not order sensitive: %v vs %v", top, bottom)
	}
	if math.Abs(top-1) > 1e-12 {
		t.Fatalf("top-ranked single relevant should be 1, got %v", top)
	}
	want := 1 / math.Log2(4) // position 3 discount, idcg=1
	if math.Abs(bottom-want) > 1e-12 {
		t.Fatalf("bottom NDCG = %v, want %v", bottom, want)
	}
}

func TestNDCGMoreRelevantThanK(t *testing.T) {
	// 25 relevant, k=20: ideal DCG truncates at k.
	ranked := make([]int, 20)
	relm := map[int]bool{}
	for i := 0; i < 20; i++ {
		ranked[i] = i
	}
	for i := 0; i < 25; i++ {
		relm[i] = true
	}
	if got := NDCGAtK(ranked, relm, 20); math.Abs(got-1) > 1e-12 {
		t.Fatalf("truncated ideal NDCG = %v", got)
	}
}

func TestF1Counts(t *testing.T) {
	// precision 2/3, recall 2/4 -> F1 = 2*2/3*1/2 / (2/3+1/2) = 4/7.
	got := F1Counts(2, 3, 4)
	if math.Abs(got-4.0/7) > 1e-12 {
		t.Fatalf("F1 = %v, want 4/7", got)
	}
	if F1Counts(0, 0, 1) != 0 || F1Counts(0, 1, 0) != 0 {
		t.Fatal("empty sets should give 0")
	}
	if F1Counts(0, 1, 1) != 0 {
		t.Fatal("no overlap should give 0")
	}
	if F1Counts(2, 2, 2) != 1 {
		t.Fatal("identical sets should give 1")
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9}
	got := TopK(scores, 3)
	if got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("TopK = %v (ties must break to lower index)", got)
	}
	if len(TopK(scores, 10)) != 4 {
		t.Fatal("TopK should clamp k")
	}
}

func TestRankEvalAggregates(t *testing.T) {
	var e RankEval
	e.AddUser(RecallAtK([]int{1, 2}, rel(1), 2), NDCGAtK([]int{1, 2}, rel(1), 2)) // recall 1, ndcg 1
	e.AddUser(RecallAtK([]int{9, 8}, rel(1), 2), NDCGAtK([]int{9, 8}, rel(1), 2)) // recall 0, ndcg 0
	r, n := e.Mean()
	if e.Users != 2 {
		t.Fatalf("users = %d", e.Users)
	}
	if math.Abs(r-0.5) > 1e-12 || math.Abs(n-0.5) > 1e-12 {
		t.Fatalf("mean = %v, %v", r, n)
	}
	var empty RankEval
	if r, n := empty.Mean(); r != 0 || n != 0 {
		t.Fatal("empty eval should give zeros")
	}
}

func TestMetricsBounded(t *testing.T) {
	f := func(seedScores [16]float64, mask uint16) bool {
		ranked := TopK(seedScores[:], 16)
		relm := map[int]bool{}
		for i := 0; i < 16; i++ {
			if mask&(1<<i) != 0 {
				relm[i] = true
			}
		}
		for _, k := range []int{1, 5, 16} {
			r := RecallAtK(ranked, relm, k)
			n := NDCGAtK(ranked, relm, k)
			if r < 0 || r > 1 || n < 0 || n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
