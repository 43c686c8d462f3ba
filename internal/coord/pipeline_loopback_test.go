package coord

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
)

// TestLoopbackBitwisePartialFraction exercises the pipeline's free wave over
// the wire: partial participation makes cohorts differ round to round, so
// each announced round has dependency-free clients that train during the
// previous round's window, plus dispersal-gated ones held for the pushed
// round-end. The networked history must still match the in-process run
// bitwise, clean and faulted, with the users in two sessions and in the
// cross-device shape the paper assumes — one device, one user, one session:
// tiny's 40 users as 40 sessions.
func TestLoopbackBitwisePartialFraction(t *testing.T) {
	defer func(old int) { uploadChunkPreds = old }(uploadChunkPreds)
	uploadChunkPreds = 3

	oneUserEach := make([][2]int, testSplit().NumUsers)
	for u := range oneUserEach {
		oneUserEach[u] = [2]int{u, u + 1}
	}
	for _, layout := range []struct {
		name   string
		ranges [][2]int
	}{
		{"two sessions", [][2]int{{0, 15}, {15, 40}}},
		{"one user per session", oneUserEach},
	} {
		for _, faulted := range []bool{false, true} {
			cfg := testConfig(models.KindNeuMF, 4)
			cfg.Rounds = 4
			cfg.ClientFraction = 0.4
			if faulted {
				cfg.Faults = fed.FaultPlan{DropoutRate: 0.25, TruncateRate: 0.4}
			}
			ref := referenceHistory(t, cfg)
			h, _ := runNetworked(t, cfg, testOptions(), layout.ranges)
			label := "partial-fraction loopback, " + layout.name
			if faulted {
				label += " (faulted)"
			}
			requireEqualHistories(t, label, ref, h)
		}
	}
}

// decodeSessionDisperses parses a session's event log, returning the users of
// every MsgDisperse frame in order.
func decodeSessionDisperses(t *testing.T, s *session) []int {
	t.Helper()
	var users []int
	for _, frame := range s.events {
		mt, payload, err := comm.ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("event frame: %v", err)
		}
		if mt != comm.MsgDisperse {
			continue
		}
		d, err := comm.DecodeDisperse(payload)
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, d.User)
	}
	return users
}

// shrinkPendingDispersals sets the retention budget for one test.
func shrinkPendingDispersals(t *testing.T, n int) {
	t.Helper()
	old := pendingDispersals
	pendingDispersals = n
	t.Cleanup(func() { pendingDispersals = old })
}

// TestPendingDispersalStore unit-tests the bounded retention store: newest
// payload supersedes per user, the oldest-stashed user is evicted past the
// budget, and a flush moves a session's hosted range into its event log.
func TestPendingDispersalStore(t *testing.T) {
	cfg := testConfig(models.KindMF, 1)
	shrinkPendingDispersals(t, 2)
	c, err := New(testSplit(), cfg, testOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Payloads must be whole 12-byte triples so a flush's MsgDisperse
	// frames decode.
	stride := comm.PredictionWireSize
	pay := func(b byte) []byte { return bytes.Repeat([]byte{b}, stride) }
	c.mu.Lock()
	c.stashPendingLocked(0, fed.Dispersal{ID: 1, Payload: pay(1)})
	c.stashPendingLocked(0, fed.Dispersal{ID: 2, Payload: pay(2)})
	c.stashPendingLocked(1, fed.Dispersal{ID: 3, Payload: pay(3)}) // evicts user 1
	c.stashPendingLocked(2, fed.Dispersal{ID: 2, Payload: pay(9)}) // supersedes in place
	c.mu.Unlock()

	if _, ok := c.pending[1]; ok {
		t.Fatal("user 1 should have been evicted (oldest stash)")
	}
	if got := c.pending[2]; got.round != 2 || !bytes.Equal(got.payload, pay(9)) {
		t.Fatalf("user 2 retention = round %d payload %v, want the superseding round-2 payload", got.round, got.payload)
	}
	if len(c.pending) != 2 {
		t.Fatalf("retention holds %d users, want 2 (budget)", len(c.pending))
	}

	// Flushing a session delivers its hosted range — [3,5) covers user 3
	// but not user 2 — and leaves the rest retained.
	s := &session{lo: 3, hi: 5}
	c.mu.Lock()
	c.flushPendingLocked(s)
	c.mu.Unlock()
	if got := decodeSessionDisperses(t, s); len(got) != 1 || got[0] != 3 {
		t.Fatalf("flush delivered users %v, want exactly [3]", got)
	}
	if _, ok := c.pending[3]; ok {
		t.Fatal("flushed dispersal still retained")
	}
	if _, ok := c.pending[2]; !ok {
		t.Fatal("out-of-range retention for user 2 should have survived the flush")
	}
}

// TestPendingQueueBounded pins the eviction queue to the retention store: a
// user whose host leaves and rejoins every round is stashed and flushed
// 10 000 times beside one user that stays retained, and the queue must hold
// exactly the retained users, oldest stash first, so the next stash past the
// budget evicts the user that has waited longest.
func TestPendingQueueBounded(t *testing.T) {
	cfg := testConfig(models.KindMF, 1)
	shrinkPendingDispersals(t, 2)
	c, err := New(testSplit(), cfg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte{1}, comm.PredictionWireSize)
	host := &session{lo: 3, hi: 4}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stashPendingLocked(0, fed.Dispersal{ID: 2, Payload: pay})
	for round := 1; round <= 10000; round++ {
		c.stashPendingLocked(round, fed.Dispersal{ID: 3, Payload: pay})
		c.flushPendingLocked(host)
		host.events = host.events[:0]
		if len(c.pendingQ) != len(c.pending) {
			t.Fatalf("round %d: queue holds %d entries for %d retained users", round, len(c.pendingQ), len(c.pending))
		}
	}
	c.stashPendingLocked(10001, fed.Dispersal{ID: 3, Payload: pay})
	c.stashPendingLocked(10001, fed.Dispersal{ID: 4, Payload: pay}) // evicts user 2
	if _, ok := c.pending[2]; ok || len(c.pending) != 2 || !slices.Equal(c.pendingQ, []int{3, 4}) {
		t.Fatalf("after eviction: retained %v, queue %v; want users 3 and 4, in that order", c.pending, c.pendingQ)
	}
}

// TestLateJoinReceivesRetainedDispersals is the satellite's end-to-end case:
// a host uploads its users' round and leaves before the round's dispersals
// are published, so the coordinator has responders with no session to push
// to. The dispersals must land in the retention store instead of vanishing,
// and a host joining after the fact (even after the whole run finished)
// receives them on its first poll, ahead of the shutdown notice.
func TestLateJoinReceivesRetainedDispersals(t *testing.T) {
	cfg := testConfig(models.KindMF, 2)
	c, err := New(testSplit(), cfg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	p, err := Join(srv.URL, 0, 40, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	var h *fed.History
	go func() {
		var err error
		h, err = c.Run(ctx)
		runDone <- err
	}()

	// Upload round 0 for all but one user directly (no poll loop), then
	// leave: the departure resolves the last user as dropped, the round
	// closes and publishes with no session left to push its dispersals to.
	users := make([]int, 39) // users[i] == i, so the list is its own slots
	for i := range users {
		users[i] = i
	}
	if err := p.runUsers(ctx, 0, users, users); err != nil {
		t.Fatalf("uploads: %v", err)
	}
	p.leave(ctx)
	if err := <-runDone; err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	if len(h.Rounds) != cfg.Rounds {
		t.Fatalf("run produced %d rounds, want %d", len(h.Rounds), cfg.Rounds)
	}

	c.mu.Lock()
	retained := len(c.pending)
	c.mu.Unlock()
	if retained == 0 {
		t.Fatal("publishing a round with no live sessions retained no dispersals")
	}

	// The late host's join flushes its users' retained D̃ᵢ into its event
	// log ahead of the shutdown notice; its Run delivers them and exits.
	late, err := Join(srv.URL, 0, 40, srv.Client())
	if err != nil {
		t.Fatalf("late join: %v", err)
	}
	if err := late.Run(ctx); err != nil {
		t.Fatalf("late participant: %v", err)
	}
	c.mu.Lock()
	left := len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d retained dispersals survived their host's join", left)
	}
}

// TestEventLogTrimmedByPolls pins the bound on a session's event log: a poll
// acknowledges every event before its cursor, so after a participant-driven
// run each polled session holds at most the frames its last poll was served —
// the events that poll had not acknowledged, ending in the shutdown notice.
// A proxy in front of the handler counts the frames of each session's latest
// poll reply.
func TestEventLogTrimmedByPolls(t *testing.T) {
	cfg := testConfig(models.KindMF, 2)
	cfg.Rounds = 4
	c, err := New(testSplit(), cfg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	lastServed := map[string]int{} // token -> frames in the session's latest poll reply
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/poll" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		frames := 0
		for body := bytes.NewReader(rec.Body.Bytes()); ; frames++ {
			if _, _, err := comm.ReadFrame(body); err != nil {
				break
			}
		}
		mu.Lock()
		lastServed[r.URL.Query().Get("token")] = frames
		mu.Unlock()
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var parts []*Participant
	for _, r := range [][2]int{{0, 15}, {15, 40}} {
		p, err := Join(srv.URL, r[0], r[1], srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	c.mu.Lock()
	sessions := make([]*session, len(parts))
	for i, p := range parts {
		sessions[i] = c.sessions[p.Token()]
	}
	c.mu.Unlock()
	errs := make(chan error, len(parts))
	for _, p := range parts {
		go func(p *Participant) { errs <- p.Run(ctx) }(p)
	}
	if _, err := c.Run(ctx); err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	for range parts {
		if err := <-errs; err != nil {
			t.Fatalf("participant: %v", err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range sessions {
		served := lastServed[strconv.FormatUint(parts[i].Token(), 10)]
		if len(s.events) > served || s.base == 0 {
			t.Fatalf("session [%d, %d) holds %d of its %d events; its last poll was served %d",
				s.lo, s.hi, len(s.events), s.base+int64(len(s.events)), served)
		}
		if mt, _, err := comm.ReadFrame(bytes.NewReader(s.events[len(s.events)-1])); err != nil || mt != comm.MsgShutdown {
			t.Fatalf("session [%d, %d): the retained tail ends in %v (%v), want the shutdown notice", s.lo, s.hi, mt, err)
		}
	}
}

// TestPipelinedEventOrdering pins the session-log order the participant's
// fed.Waves relies on — round r+1's start is announced before round r's end
// marker, and round r+2's after it, so at most one gated wave is ever held
// (Waves refuses an announcement while one is). A silent observer session
// (whose users the deadline drops) keeps its full event log readable after
// the run.
func TestPipelinedEventOrdering(t *testing.T) {
	cfg := testConfig(models.KindMF, 2)
	cfg.Rounds = 3
	opts := testOptions()
	opts.Deadline = 500 * time.Millisecond

	c, err := New(testSplit(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	observer, err := Join(srv.URL, 39, 40, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	worker, err := Join(srv.URL, 0, 39, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- worker.Run(ctx) }()
	if _, err := c.Run(ctx); err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker participant: %v", err)
	}

	c.mu.Lock()
	s := c.sessions[observer.Token()]
	var events [][]byte
	if s != nil {
		events = append(events, s.events...)
	}
	c.mu.Unlock()
	if s == nil {
		t.Fatal("observer session vanished")
	}

	startAt := map[int]int{} // round -> event index of its RoundStart
	endAt := map[int]int{}
	for i, raw := range events {
		mt, payload, err := comm.ReadFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		switch mt {
		case comm.MsgRoundStart:
			rs, err := comm.DecodeRoundStart(payload)
			if err != nil {
				t.Fatal(err)
			}
			startAt[rs.Round] = i
		case comm.MsgRoundEnd:
			r, err := comm.DecodeRound(payload)
			if err != nil {
				t.Fatal(err)
			}
			endAt[r] = i
		}
	}
	for r := 0; r < cfg.Rounds; r++ {
		if _, ok := startAt[r]; !ok {
			t.Fatalf("round %d never announced to the observer", r)
		}
		if _, ok := endAt[r]; !ok {
			t.Fatalf("round %d end marker never pushed to the observer", r)
		}
		if r+1 < cfg.Rounds && startAt[r+1] > endAt[r] {
			t.Fatalf("round %d announced at event %d, after round %d ended at %d — the pipeline never overlapped",
				r+1, startAt[r+1], r, endAt[r])
		}
		if r+2 < cfg.Rounds && startAt[r+2] < endAt[r] {
			t.Fatalf("round %d announced at event %d, before round %d ended at %d", r+2, startAt[r+2], r, endAt[r])
		}
		if r > 0 && endAt[r] < endAt[r-1] {
			t.Fatalf("round ends out of order: end(%d)=%d before end(%d)=%d", r, endAt[r], r-1, endAt[r-1])
		}
	}
}
