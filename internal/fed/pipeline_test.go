package fed

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptffedrec/internal/eval"
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
		rounds = append(rounds, tr.RunRound(round))
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

// TestRoundEngineRun pins the server side of the schedule on a scripted
// transport that records every call: rounds 0 and 1 are opened before round 0
// is collected, publish(r) comes before open(r+2), only EvalDue rounds carry
// Evaluated, and a collect error ends the run and is returned. A transport
// that trains each cohort when it is collected reproduces Trainer.Run's
// History.
func TestRoundEngineRun(t *testing.T) {
	cfg := pipelineConfig(models.KindLightGCN, 2, false)
	sp := tinySplit(t)
	errCollect := errors.New("scripted collect failure")
	run := func(failRound int) (*History, []string, error) {
		engine, err := NewRoundEngine(sp.NumUsers, sp.NumItems, cfg)
		if err != nil {
			t.Fatal(err)
		}
		host, err := NewClientHost(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var calls []string
		var ev *eval.Evaluator
		h, err := engine.Run(context.Background(), func() *eval.Evaluator { return eval.LazyEvaluator(&ev, sp) },
			func(round int, users []int) Collect {
				calls = append(calls, fmt.Sprint("open ", round))
				return func(context.Context) ([]ClientOutcome, error) {
					calls = append(calls, fmt.Sprint("collect ", round))
					if round == failRound {
						return nil, errCollect
					}
					outcomes := make([]ClientOutcome, len(users))
					for slot, u := range users {
						outcomes[slot] = host.RunClientRound(round, u).Outcome()
					}
					return outcomes, nil
				}
			}, func(round int, dispersals []Dispersal) {
				calls = append(calls, fmt.Sprint("publish ", round))
				for _, d := range dispersals {
					host.Deliver(d.ID, d.Preds)
				}
			})
		return h, calls, err
	}

	h, calls, err := run(-1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"open 0", "open 1", "collect 0", "publish 0", "open 2", "collect 1", "publish 1",
		"open 3", "collect 2", "publish 2", "collect 3", "publish 3"}
	if !slices.Equal(calls, want) {
		t.Fatalf("calls %q, want %q", calls, want)
	}
	for _, rs := range h.Rounds {
		if rs.Evaluated != cfg.EvalDue(rs.Round) || rs.Evaluated != (rs.NDCG > 0) {
			t.Fatalf("round %d: Evaluated = %v with NDCG %v, want Evaluated = EvalDue = %v", rs.Round, rs.Evaluated, rs.NDCG, cfg.EvalDue(rs.Round))
		}
	}
	requireEqualHistories(t, "scripted transport vs Trainer.Run", h, runHistory(t, cfg))

	h, calls, err = run(1)
	if !errors.Is(err, errCollect) || h != nil {
		t.Fatalf("Run with round 1's collect failing = %v, %v; want no History and the collect error", h, err)
	}
	if want := want[:6]; !slices.Equal(calls, want) {
		t.Fatalf("calls %q after a failed collect, want %q", calls, want)
	}
}

// TestWaves pins the dependency rule's one owner on a scripted schedule:
// which slots each wave trains and in what order, that an announcement after
// its predecessor ended (or after a gap) runs everyone free, that no two
// waves ever train at once, that Wait returns only after the last wave, that
// an announcement while a gated wave is held is refused, and that Announce's
// channel closes only after the round's gated wave has trained — at once for
// a round with no users.
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
	announce := func(w *Waves, round int, users []int, pause time.Duration) <-chan struct{} {
		t.Helper()
		done, err := w.Announce(round, users, train(round, pause))
		if err != nil {
			t.Fatalf("announce round %d: %v", round, err)
		}
		return done
	}
	closed := func(done <-chan struct{}) bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	w := NewWaves()
	w.Wait() // nothing launched yet
	announce(w, 0, []int{10, 11, 12}, 5*time.Millisecond)
	done1 := announce(w, 1, []int{11, 20, 12, 21}, 0) // 11 and 12 wait on round 0
	_, err := w.Announce(2, []int{20, 30}, train(2, 0))
	if err == nil || !strings.Contains(err.Error(), "round 1's gated wave") {
		t.Fatalf("announce of round 2 before round 0 ended: err = %v, want a refusal naming round 1's gated wave", err)
	}
	w.Wait() // round 0's wave and round 1's free wave have trained
	if closed(done1) {
		t.Fatal("round 1's channel closed while its gated wave was held")
	}
	w.End(0)
	<-done1
	mu.Lock()
	if last := got[len(got)-1]; last.round != 1 || !slices.Equal(last.slots, []int{0, 2}) {
		t.Fatalf("round 1's channel closed after wave %v, want its gated wave {1 [0 2]}", last)
	}
	mu.Unlock()
	announce(w, 2, []int{20, 30}, 0) // 20 waits on round 1
	w.End(1)
	w.End(2)
	announce(w, 3, []int{30, 40}, 0)                   // round 2 ended: all free
	announce(w, 5, []int{40, 50}, 20*time.Millisecond) // round 4 never announced here: all free
	if done6 := announce(w, 6, nil, 0); !closed(done6) {
		t.Fatal("a round with no users: channel open, want it closed at once")
	}
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
