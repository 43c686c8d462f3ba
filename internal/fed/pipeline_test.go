package fed

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptffedrec/internal/models"
)

// pipelineConfig shapes a run that actually exercises both pipeline waves:
// partial participation keeps cohorts changing round to round, so every
// round has dependency-free clients (the free wave) and dispersal-gated
// clients (the gated wave). A mid-run evaluation exercises the overlapped
// eval inside the pipelined close.
func pipelineConfig(server models.Kind, workers int, faulted bool) Config {
	cfg := fastConfig(server)
	cfg.Rounds = 4
	cfg.ClientFraction = 0.3
	cfg.EvalEvery = 2
	cfg.Workers = workers
	if faulted {
		cfg.Faults = FaultPlan{DropoutRate: 0.2, TruncateRate: 0.25}
	}
	return cfg
}

// runSerialHistory is Algorithm 1 as written — one round after another, each
// evaluated when due, then the final evaluation — the schedule oracle the
// cross-round pipeline behind Trainer.Run is pinned against.
func runSerialHistory(t *testing.T, cfg Config) *History {
	t.Helper()
	tr, err := NewTrainer(tinySplit(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []RoundStats
	for round := 0; round < cfg.Rounds; round++ {
		var rs RoundStats
		if cfg.EvalDue(round) {
			rs, _ = tr.RunRoundEval(round)
		} else {
			rs = tr.RunRound(round)
		}
		rounds = append(rounds, rs)
	}
	return NewHistory(rounds, tr.EvaluateServer())
}

// TestNewHistoryMatchesRun pins the one History assembly: rebuilding a run's
// History from its own rounds and final result reproduces it bitwise, and a
// run of no rounds has a zero MeanAttackF1 (the hand-written copies NewHistory
// replaced divided by the round count unguarded).
func TestNewHistoryMatchesRun(t *testing.T) {
	tr, err := NewTrainer(tinySplit(t), fastConfig(models.KindNeuMF))
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if h.MeanAttackF1 == 0 {
		t.Fatal("run reports no attack F1; the comparison would be vacuous")
	}
	requireEqualHistories(t, "NewHistory(h.Rounds, h.Final)", NewHistory(h.Rounds, h.Final), h)
	if empty := NewHistory(nil, h.Final); empty.MeanAttackF1 != 0 || empty.Final != h.Final {
		t.Fatalf("NewHistory of no rounds = %+v, want zero MeanAttackF1 and the final result", empty)
	}
}

// TestPipelinedMatchesSequential pins the schedule invariant: the cross-round
// pipeline produces a History bitwise-identical to the serial round loop,
// across every model kind, worker count, and fault plan. The dependency rule
// (gate a round-(r+1) client on round r's dispersal iff it was in round r's
// cohort) plus pure per-(round, client) stream derivation make training order
// across rounds unobservable.
func TestPipelinedMatchesSequential(t *testing.T) {
	kinds := []models.Kind{models.KindMF, models.KindNeuMF, models.KindNGCF, models.KindLightGCN}
	workerCounts := []int{1, 2, 8}
	if testing.Short() {
		kinds = []models.Kind{models.KindNeuMF, models.KindLightGCN}
		workerCounts = []int{1, 8}
	}
	for _, kind := range kinds {
		for _, workers := range workerCounts {
			for _, faulted := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d/faulted=%v", kind, workers, faulted)
				t.Run(name, func(t *testing.T) {
					cfg := pipelineConfig(kind, workers, faulted)
					requireEqualHistories(t, name, runHistory(t, cfg), runSerialHistory(t, cfg))
				})
			}
		}
	}
}

// TestPipelinedFullParticipation pins the degenerate dependency graph: at
// ClientFraction 1.0 every round-(r+1) client was in cohort(r), so the free
// wave is empty and the pipeline must collapse to the serial loop — still
// bitwise-identical, with nothing overlapped.
func TestPipelinedFullParticipation(t *testing.T) {
	cfg := pipelineConfig(models.KindNeuMF, 4, true)
	cfg.ClientFraction = 1.0
	requireEqualHistories(t, "full-participation", runHistory(t, cfg), runSerialHistory(t, cfg))
}

// TestPipelinedWorkerInvariance pins that the pipelined schedule keeps the
// engine's original guarantee: one pipelined History, any worker count.
func TestPipelinedWorkerInvariance(t *testing.T) {
	base := runHistory(t, pipelineConfig(models.KindLightGCN, 1, true))
	for _, workers := range []int{2, 8} {
		h := runHistory(t, pipelineConfig(models.KindLightGCN, workers, true))
		requireEqualHistories(t, fmt.Sprintf("pipelined w%d vs w1", workers), base, h)
	}
}

// TestWaves pins the dependency rule's one owner on a scripted schedule:
// which slots each wave trains and in what order, that an announcement after
// its predecessor ended (or after a gap) runs everyone free, that no two
// waves ever train at once, that Wait returns only after the last wave, and
// that an announcement while a gated wave is held is refused.
func TestWaves(t *testing.T) {
	type wave struct {
		round int
		slots []int
	}
	var (
		mu       sync.Mutex
		got      []wave
		inFlight atomic.Int32
		overlaps atomic.Int32
	)
	train := func(round int, pause time.Duration) func([]int) {
		return func(slots []int) {
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			time.Sleep(pause)
			mu.Lock()
			got = append(got, wave{round, slots})
			mu.Unlock()
			inFlight.Add(-1)
		}
	}
	announce := func(w *Waves, round int, users []int, pause time.Duration) {
		t.Helper()
		if err := w.Announce(round, users, train(round, pause)); err != nil {
			t.Fatalf("announce round %d: %v", round, err)
		}
	}

	w := NewWaves()
	w.Wait() // nothing launched yet
	announce(w, 0, []int{10, 11, 12}, 5*time.Millisecond)
	announce(w, 1, []int{11, 20, 12, 21}, 0) // 11 and 12 wait on round 0
	err := w.Announce(2, []int{20, 30}, train(2, 0))
	if err == nil || !strings.Contains(err.Error(), "round 1's gated wave") {
		t.Fatalf("announce of round 2 before round 0 ended: err = %v, want a refusal naming round 1's gated wave", err)
	}
	w.End(0)
	announce(w, 2, []int{20, 30}, 0) // 20 waits on round 1
	w.End(1)
	w.End(2)
	announce(w, 3, []int{30, 40}, 0)                   // round 2 ended: all free
	announce(w, 5, []int{40, 50}, 20*time.Millisecond) // round 4 never announced here: all free
	w.Wait()

	mu.Lock()
	defer mu.Unlock()
	want := []wave{
		{0, []int{0, 1, 2}},
		{1, []int{1, 3}},
		{1, []int{0, 2}},
		{2, []int{1}},
		{2, []int{0}},
		{3, []int{0, 1}},
		{5, []int{0, 1}},
	}
	if len(got) != len(want) {
		t.Fatalf("Wait returned after %d waves, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].round != want[i].round || !slices.Equal(got[i].slots, want[i].slots) {
			t.Fatalf("wave %d trained round %d slots %v, want round %d slots %v",
				i, got[i].round, got[i].slots, want[i].round, want[i].slots)
		}
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d waves started while another was training", n)
	}
}
