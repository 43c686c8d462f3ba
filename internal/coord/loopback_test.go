package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
)

const (
	testSeed = 42
	testFrac = 0.2
)

// testSplit builds the shared world through the same recipe the participant
// reconstructs from a JoinAck, so the reference trainer and the networked
// path train on identical data.
func testSplit() *data.Split { return data.StreamSplit(data.Tiny, testSeed, testFrac) }

func testConfig(server models.Kind, workers int) fed.Config {
	cfg := fed.DefaultConfig(server)
	cfg.ClientModel = models.KindMF
	cfg.Rounds = 2
	cfg.EvalEvery = 1
	cfg.ClientEpochs = 1
	cfg.ServerEpochs = 1
	cfg.Dim = 8
	cfg.Alpha = 10
	cfg.LR = 5e-3
	cfg.Workers = workers
	return cfg
}

func testOptions() Options {
	return Options{Profile: data.Tiny.Name, DataSeed: testSeed, TestFrac: testFrac}
}

// requireEqualHistories compares two training traces with bitwise float
// equality — the loopback contract mirrors the in-process engine's.
func requireEqualHistories(t *testing.T, label string, a, b *fed.History) {
	t.Helper()
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("%s: round counts differ: %d vs %d", label, len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("%s: round %d differs:\n  %+v\n  %+v", label, i, a.Rounds[i], b.Rounds[i])
		}
	}
	if a.Final != b.Final || a.MeanAttackF1 != b.MeanAttackF1 {
		t.Fatalf("%s: final results differ: %+v/%v vs %+v/%v",
			label, a.Final, a.MeanAttackF1, b.Final, b.MeanAttackF1)
	}
}

// referenceHistory runs the in-process trainer on the same world.
func referenceHistory(t *testing.T, cfg fed.Config) *fed.History {
	t.Helper()
	tr, err := fed.NewTrainer(testSplit(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runNetworked drives a full coordinator run over a loopback HTTP server with
// one participant per user range, returning the coordinator's history.
func runNetworked(t *testing.T, cfg fed.Config, opts Options, ranges [][2]int) (*fed.History, *Coordinator) {
	t.Helper()
	return runNetworkedVia(t, cfg, opts, ranges, func(h http.Handler) http.Handler { return h })
}

// runNetworkedVia is runNetworked with the coordinator's handler wrapped.
func runNetworkedVia(t *testing.T, cfg fed.Config, opts Options, ranges [][2]int, wrap func(http.Handler) http.Handler) (*fed.History, *Coordinator) {
	t.Helper()
	c, err := New(testSplit(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wrap(c.Handler()))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		p, err := Join(srv.URL, r[0], r[1], srv.Client())
		if err != nil {
			t.Fatalf("join [%d, %d): %v", r[0], r[1], err)
		}
		wg.Add(1)
		go func(i int, p *Participant) {
			defer wg.Done()
			errs[i] = p.Run(ctx)
		}(i, p)
	}
	h, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("participant %d: %v", i, err)
		}
	}
	return h, c
}

// TestLoopbackBitwise is the tentpole contract: a coordinator plus two
// participants over a loopback HTTP transport reproduces the in-process
// fed.Trainer history bitwise, across server model kinds and worker counts.
func TestLoopbackBitwise(t *testing.T) {
	kinds := []models.Kind{models.KindNeuMF, models.KindLightGCN}
	if testing.Short() {
		kinds = kinds[:1]
	}
	for _, server := range kinds {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", server, workers), func(t *testing.T) {
				cfg := testConfig(server, workers)
				ref := referenceHistory(t, cfg)
				h, c := runNetworked(t, cfg, testOptions(), [][2]int{{0, 20}, {20, 40}})
				requireEqualHistories(t, fmt.Sprintf("%s/w%d", server, workers), ref, h)
				if in, out := c.WireBytes(); in <= 0 || out <= 0 {
					t.Fatalf("transport meter did not move: in=%d out=%d", in, out)
				}
			})
		}
	}
}

// TestLoopbackBitwiseFaulted pins the fault routing through the transport: a
// FaultPlan's dropouts arrive as upload streams that declare no predictions
// and its truncations as streams cut before MsgUploadEnd — by the next user's
// begin frame or the body's end — and the server-side classification
// reproduces the in-process faulted history bitwise. uploadChunkPreds shrinks
// so truncated uploads still span several chunk frames on the tiny catalogue.
func TestLoopbackBitwiseFaulted(t *testing.T) {
	defer func(old int) { uploadChunkPreds = old }(uploadChunkPreds)
	uploadChunkPreds = 3

	cfg := testConfig(models.KindLightGCN, 4)
	cfg.Faults = fed.FaultPlan{DropoutRate: 0.3, TruncateRate: 0.5}
	ref := referenceHistory(t, cfg)
	dropped := 0
	for _, rs := range ref.Rounds {
		dropped += rs.Dropped
	}
	if dropped == 0 {
		t.Fatal("fault plan produced no dropouts; the test exercises nothing")
	}
	h, _ := runNetworked(t, cfg, testOptions(), [][2]int{{0, 15}, {15, 40}})
	requireEqualHistories(t, "faulted loopback", ref, h)
}

// TestStragglerDeadline covers partial participation: one live participant
// and one registered-but-silent session. The round deadline fires, the silent
// host's users are counted as dropped, and the run completes every round
// instead of waiting forever. At ClientFraction 1.0 every live user is gated
// on the previous round; at 0.4 the cohorts change round to round, so rounds
// the deadline cut loose meet both free and gated waves in the participant.
func TestStragglerDeadline(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fraction float64
		rounds   int
	}{
		{"full", 1.0, 2},
		{"partial", 0.4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(models.KindNeuMF, 2)
			cfg.ClientFraction = tc.fraction
			cfg.Rounds = tc.rounds
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

			if _, err := Join(srv.URL, 20, 40, srv.Client()); err != nil {
				t.Fatalf("silent join: %v", err)
			}
			live, err := Join(srv.URL, 0, 20, srv.Client())
			if err != nil {
				t.Fatalf("live join: %v", err)
			}
			var wg sync.WaitGroup
			var liveErr error
			wg.Add(1)
			go func() { defer wg.Done(); liveErr = live.Run(ctx) }()

			h, err := c.Run(ctx)
			if err != nil {
				t.Fatalf("coordinator run: %v", err)
			}
			wg.Wait()
			if liveErr != nil {
				t.Fatalf("live participant: %v", liveErr)
			}
			if len(h.Rounds) != cfg.Rounds {
				t.Fatalf("run produced %d rounds, want %d", len(h.Rounds), cfg.Rounds)
			}
			for _, rs := range h.Rounds {
				silent, hosted := 0, 0
				for _, u := range c.engine.Select(rs.Round) {
					if u >= 20 {
						silent++
					} else {
						hosted++
					}
				}
				if rs.Dropped < silent {
					t.Fatalf("round %d: %d dropped, want at least the %d silent-hosted users", rs.Round, rs.Dropped, silent)
				}
				if hosted > 0 && rs.Dropped == rs.Participants {
					t.Fatalf("round %d: every client dropped; the live half never landed", rs.Round)
				}
			}
		})
	}

	// The deadline closes a round while an upload body still streams: the
	// user read before the close is acked, the one after it gets a MsgError
	// frame under 409, the participant's reply check carries on, and the
	// round keeps the acked user alone.
	t.Run("mid-body", func(t *testing.T) {
		cfg := testConfig(models.KindMF, 1)
		cfg.Rounds = 1
		opts := testOptions()
		opts.Deadline = 300 * time.Millisecond
		c, err := New(testSplit(), cfg, opts)
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
		ran := make(chan *fed.History, 1)
		go func() {
			h, err := c.Run(ctx)
			if err != nil {
				t.Error(err)
			}
			ran <- h
		}()
		if _, err := p.poll(ctx, 0); err != nil { // round 0 is announced
			t.Fatal(err)
		}
		c.mu.Lock()
		rs := c.rounds[0]
		c.mu.Unlock()

		pr, pw := io.Pipe()
		replied := make(chan *http.Response, 1)
		go func() {
			resp, err := srv.Client().Post(fmt.Sprintf("%s/v1/upload?token=%d&round=0", srv.URL, p.Token()), "application/octet-stream", pr)
			if err != nil {
				t.Error(err)
			}
			replied <- resp
		}()
		honest := func(u int) []byte {
			return encodeUpload(0, u, []comm.Prediction{{User: u, Item: 1, Score: 0.9}, {User: u, Item: 2, Score: 0.75}}, 2, true)
		}
		pw.Write(honest(3))
		for resolved := false; !resolved; time.Sleep(5 * time.Millisecond) {
			c.mu.Lock()
			_, waiting := rs.awaiting[3]
			c.mu.Unlock()
			resolved = !waiting
		}
		<-rs.done // the deadline closes the round
		pw.Write(honest(4))
		pw.Close()
		resp := <-replied
		if resp == nil {
			t.FailNow()
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var got []comm.MsgType
		for body := bytes.NewReader(reply); ; {
			mt, _, err := comm.ReadFrame(body)
			if err != nil {
				break
			}
			got = append(got, mt)
		}
		if resp.StatusCode != http.StatusConflict || !slices.Equal(got, []comm.MsgType{comm.MsgAck, comm.MsgError}) {
			t.Fatalf("reply %d %v, want 409 with an ack for user 3 and an error for user 4", resp.StatusCode, got)
		}
		resp.Body = io.NopCloser(bytes.NewReader(reply))
		if err := checkUploadReply(resp, 2); err != nil {
			t.Fatalf("the participant's reply check on the 409: %v, want it to carry on", err)
		}
		h := <-ran
		if h == nil || h.Rounds[0].Dropped != h.Rounds[0].Participants-1 {
			t.Fatalf("round 0: %+v, want every user but 3 dropped", h)
		}
	})
}

// TestJoinRejectsForeignUniverse pins the join-ack's shape check: a
// coordinator on the tiny split that advertises another profile would have
// its participant train a different universe. Join fails naming both shapes
// and gives its range back.
func TestJoinRejectsForeignUniverse(t *testing.T) {
	opts := testOptions()
	opts.Profile = data.ML100KSmall.Name
	c, err := New(testSplit(), testConfig(models.KindMF, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	sp := testSplit()
	_, err = Join(srv.URL, 0, sp.NumUsers, srv.Client())
	want := fmt.Sprintf("%d users × %d items", sp.NumUsers, sp.NumItems)
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), data.ML100KSmall.Name) {
		t.Fatalf("join against a foreign profile: err = %v, want a refusal naming %q and the coordinator's %s", err, data.ML100KSmall.Name, want)
	}
	if n := c.Sessions(); n != 0 {
		t.Fatalf("a refused join left %d sessions registered, want 0", n)
	}
}

// TestJoinRejectsTestFracOutOfRange pins that a participant refuses a
// join-ack whose test fraction lies outside [0, 1], NaN included, and gives
// its range back.
func TestJoinRejectsTestFracOutOfRange(t *testing.T) {
	for _, frac := range []float64{-0.1, 1.5, math.NaN()} {
		opts := testOptions()
		opts.TestFrac = frac
		c, err := New(testSplit(), testConfig(models.KindMF, 1), opts)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c.Handler())
		_, err = Join(srv.URL, 0, testSplit().NumUsers, srv.Client())
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "TestFrac") {
			t.Fatalf("join-ack TestFrac %v: err = %v, want a refusal naming TestFrac", frac, err)
		}
		if n := c.Sessions(); n != 0 {
			t.Fatalf("join-ack TestFrac %v: a refused join left %d sessions registered, want 0", frac, n)
		}
	}
}

// TestJoinLeaveLifecycle pins the registry rules: overlapping and
// out-of-range joins are refused, a vacated range can be re-joined, leaving
// mid-round resolves the departed host's pending users as dropped, and a join
// after the run finished receives an immediate shutdown.
func TestJoinLeaveLifecycle(t *testing.T) {
	cfg := testConfig(models.KindMF, 2)
	c, err := New(testSplit(), cfg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	p1, err := Join(srv.URL, 0, 20, srv.Client())
	if err != nil {
		t.Fatalf("first join: %v", err)
	}
	if _, err := Join(srv.URL, 10, 30, srv.Client()); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlapping join: err = %v, want overlap refusal", err)
	}
	if _, err := Join(srv.URL, 30, 99, srv.Client()); err == nil || !strings.Contains(err.Error(), "universe") {
		t.Fatalf("out-of-range join: err = %v, want range refusal", err)
	}
	p1.leave(ctx)
	p2, err := Join(srv.URL, 10, 30, srv.Client())
	if err != nil {
		t.Fatalf("re-join of vacated range: %v", err)
	}

	// p2 never polls. Round 0 waits on its hosted users (no deadline set);
	// leaving must resolve them as dropped so the run can finish.
	done := make(chan struct{})
	var h *fed.History
	var runErr error
	go func() {
		defer close(done)
		h, runErr = c.Run(ctx)
	}()
	time.Sleep(100 * time.Millisecond)
	p2.leave(ctx)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish after the sole session left")
	}
	if runErr != nil {
		t.Fatalf("coordinator run: %v", runErr)
	}
	for _, rs := range h.Rounds {
		if rs.Dropped != rs.Participants {
			t.Fatalf("round %d: %d of %d dropped, want all (nobody hosted anyone)",
				rs.Round, rs.Dropped, rs.Participants)
		}
	}

	// The coordinator is down: a late joiner is told to shut down at once.
	p3, err := Join(srv.URL, 0, 5, srv.Client())
	if err != nil {
		t.Fatalf("post-run join: %v", err)
	}
	if err := p3.Run(ctx); err != nil {
		t.Fatalf("post-run participant should see an immediate shutdown: %v", err)
	}
}

// TestSessionTokensUnguessable pins that a session token carries no
// neighbour's identity: two joins do not get consecutive tokens, both lie in
// [1, 2⁶³), and a token one either side of a live one — what a peer counting
// up from its own would try — gets MsgError from leave, poll and upload,
// leaving both sessions in place.
func TestSessionTokensUnguessable(t *testing.T) {
	c, err := New(testSplit(), testConfig(models.KindMF, 1), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	p1, err := Join(srv.URL, 0, 20, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Join(srv.URL, 20, 40, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := p1.Token(), p2.Token()
	for _, tok := range []uint64{t1, t2} {
		if tok == 0 || tok >= 1<<63 {
			t.Fatalf("token %d outside [1, 2⁶³)", tok)
		}
	}
	if t1+1 == t2 || t2+1 == t1 {
		t.Fatalf("consecutive tokens %d and %d", t1, t2)
	}
	for _, tok := range []uint64{t1 - 1, t1 + 1, t2 - 1, t2 + 1} {
		if tok == t1 || tok == t2 {
			continue
		}
		for _, path := range []string{
			fmt.Sprintf("/v1/leave?token=%d", tok),
			fmt.Sprintf("/v1/poll?token=%d&after=0", tok),
			fmt.Sprintf("/v1/upload?token=%d&round=0&user=0", tok),
		} {
			resp, err := srv.Client().Post(srv.URL+path, "application/octet-stream", nil)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			mt, payload, err := comm.ReadFrame(resp.Body)
			resp.Body.Close()
			if err != nil || mt != comm.MsgError || !strings.Contains(string(payload), "token") {
				t.Fatalf("%s: reply %v %q (%v), want MsgError for an unknown token", path, mt, payload, err)
			}
		}
	}
	if n := c.Sessions(); n != 2 {
		t.Fatalf("%d sessions after the guessed tokens, want 2", n)
	}
}

// TestRefusalsAnswer4xx pins one rule for every refusal on the four
// endpoints: a 4xx status and a MsgError frame, never 200. 409 is the late
// upload's alone — an upload for an announced round that is closed or already
// published (TestUploadRejectsForeignPredictions pins it); everything else a
// request gets wrong answers 400, an upload for a round never announced
// included (this coordinator never runs; the test announces round 0 alone),
// and none of it registers or drops a session.
func TestRefusalsAnswer4xx(t *testing.T) {
	sp := testSplit()
	c, err := New(sp, testConfig(models.KindMF, 1), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	p, err := Join(srv.URL, 0, 20, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	c.openRound(0, []int{0, 1, 2})
	tok := p.Token()
	join := func(lo, hi int) []byte {
		return comm.AppendJoin(nil, comm.Join{UserLo: lo, UserHi: hi})
	}
	upload := func(round, user int) []byte {
		return encodeUpload(round, user, []comm.Prediction{{User: user, Item: 1, Score: 0.5}}, 1, true)
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"join: not a frame", "/v1/join", []byte("not a frame")},
		{"join: wrong frame", "/v1/join", comm.AppendFrame(nil, comm.MsgAck, nil)},
		{"join: empty range", "/v1/join", join(30, 30)},
		{"join: range beyond the universe", "/v1/join", join(30, sp.NumUsers+1)},
		{"join: range overlaps a live session", "/v1/join", join(10, 30)},
		{"join: bytes after the frame", "/v1/join", append(join(30, 40), "trailing garbage"...)},
		{"leave: missing token", "/v1/leave", nil},
		{"leave: malformed token", "/v1/leave?token=x", nil},
		{"leave: unknown token", fmt.Sprintf("/v1/leave?token=%d", tok^1), nil},
		{"poll: unknown token", fmt.Sprintf("/v1/poll?token=%d&after=0", tok^1), nil},
		{"poll: missing after", fmt.Sprintf("/v1/poll?token=%d", tok), nil},
		{"poll: malformed after", fmt.Sprintf("/v1/poll?token=%d&after=x", tok), nil},
		{"poll: cursor outside the log", fmt.Sprintf("/v1/poll?token=%d&after=5", tok), nil},
		{"upload: missing token", "/v1/upload?round=0", upload(0, 0)},
		{"upload: missing round", fmt.Sprintf("/v1/upload?token=%d", tok), upload(0, 0)},
		{"upload: malformed round", fmt.Sprintf("/v1/upload?token=%d&round=x", tok), upload(0, 0)},
		{"upload: chunk outside a stream", fmt.Sprintf("/v1/upload?token=%d&round=0", tok), upload(0, 0)[comm.FrameHeaderSize+29:]},
		{"upload: user not hosted", fmt.Sprintf("/v1/upload?token=%d&round=0", tok), upload(0, 25)},
		{"upload: user repeated", fmt.Sprintf("/v1/upload?token=%d&round=0", tok), append(upload(0, 1), upload(0, 1)...)},
		{"upload: round never announced", fmt.Sprintf("/v1/upload?token=%d&round=1", tok), upload(1, 0)},
		{"upload: negative round", fmt.Sprintf("/v1/upload?token=%d&round=-1", tok), nil},
	} {
		resp, err := srv.Client().Post(srv.URL+tc.path, "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mt, payload, err := comm.ReadFrame(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || mt != comm.MsgError || len(payload) == 0 {
			t.Errorf("%s: reply %d %v %q (%v), want 400 and a MsgError frame", tc.name, resp.StatusCode, mt, payload, err)
		}
	}
	if n := c.Sessions(); n != 1 {
		t.Fatalf("%d sessions after the refusals, want 1", n)
	}
}

// encodeUpload builds an upload body for readUpload tests.
func encodeUpload(round, user int, preds []comm.Prediction, sendPreds int, end bool) []byte {
	return encodeUploadMetrics(round, user, preds, sendPreds, end, 0.25, 0.5)
}

// encodeUploadMetrics is encodeUpload with the begin frame's loss and attack
// F1 given.
func encodeUploadMetrics(round, user int, preds []comm.Prediction, sendPreds int, end bool, loss, attackF1 float64) []byte {
	b := comm.AppendUploadBegin(nil, comm.UploadBegin{
		Round: round, User: user, Count: len(preds),
		Loss: loss, AttackF1: attackF1,
	})
	sent := preds[:sendPreds]
	for off := 0; off < len(sent); off += 2 {
		b = comm.AppendUploadChunk(b, sent[off:min(off+2, len(sent))])
	}
	if end {
		b = comm.AppendFrame(b, comm.MsgUploadEnd, nil)
	}
	return b
}

// withCodecByte returns a copy of an upload body whose opening frame names
// codec instead of 0, the one prediction format's id.
func withCodecByte(body []byte, codec byte) []byte {
	body = bytes.Clone(body)
	body[comm.FrameHeaderSize+8] = codec // UploadBegin's codec byte
	return body
}

// repeatReader yields its frame's bytes over and over: a peer that never
// stops streaming.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	for n := range p {
		p[n] = r.frame[r.off]
		r.off = (r.off + 1) % len(r.frame)
	}
	return len(p), nil
}

// readBody runs readUploads over body for round 1 from a session hosting
// users [5, 10), returning the outcomes it resolved in order.
func readBody(c *Coordinator, body io.Reader) ([]fed.ClientOutcome, error) {
	var got []fed.ClientOutcome
	err := c.readUploads(body, 1, &session{token: 1, lo: 5, hi: 10}, func(o fed.ClientOutcome) { got = append(got, o) })
	return got, err
}

// TestReadUploadClassification pins the server-side body classification:
// each stream resolves as complete at its end frame, as a truncated prefix
// at the next begin frame or the body's end, as dropped when no prediction
// arrived (the in-stream drop: a begin frame declaring none and the end
// frame), and protocol violations are errors that resolve the offending
// stream's user, when the body names a hosted one, as dropped.
func TestReadUploadClassification(t *testing.T) {
	c := &Coordinator{split: testSplit()}
	preds := []comm.Prediction{
		{User: 7, Item: 3, Score: 0.5},
		{User: 7, Item: 9, Score: 0},
		{User: 7, Item: 12, Score: 1},
		{User: 7, Item: 44, Score: 0.125},
	}
	read := func(body []byte) ([]fed.ClientOutcome, error) { return readBody(c, bytes.NewReader(body)) }
	// one reads a body that must resolve exactly one stream.
	one := func(body []byte) (fed.ClientOutcome, error) {
		t.Helper()
		got, err := read(body)
		if len(got) != 1 {
			t.Fatalf("body resolved %d streams (%+v, err %v), want 1", len(got), got, err)
		}
		return got[0], err
	}
	dropped := func(o fed.ClientOutcome, user int) bool { return o.Dropped && o.ID == user && len(o.Upload) == 0 }

	if got, err := read(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty body: outcomes %+v, err %v; want none", got, err)
	}

	o, err := one(encodeUpload(1, 7, preds, len(preds), true))
	if err != nil || o.Dropped || o.ID != 7 || !slices.Equal(o.Upload, preds) {
		t.Fatalf("complete body: outcome %+v, err %v; want user 7's %d predictions", o, err, len(preds))
	}
	if o.Loss != 0.25 || o.AttackF1 != 0.5 {
		t.Fatalf("complete body: metrics %v/%v did not survive the begin frame", o.Loss, o.AttackF1)
	}

	o, err = one(encodeUpload(1, 7, preds, 2, false))
	if err != nil || o.Dropped || len(o.Upload) != 2 {
		t.Fatalf("truncated body: outcome %+v, err %v; want the 2-prediction prefix", o, err)
	}
	if o, err = one(encodeUpload(1, 7, preds, 0, false)); err != nil || !dropped(o, 7) {
		t.Fatalf("begin-only body: outcome %+v, err %v; want a drop", o, err)
	}
	if o, err = one(encodeUpload(1, 7, nil, 0, true)); err != nil || !dropped(o, 7) {
		t.Fatalf("in-stream drop: outcome %+v, err %v; want a drop", o, err)
	}

	// Several users in one body, each resolved in body order: a complete
	// stream, a short write ended by the next begin frame, an in-stream drop,
	// and a short write ended by the body's end.
	other := func(u int) []comm.Prediction {
		return []comm.Prediction{{User: u, Item: 1, Score: 0.5}, {User: u, Item: 2, Score: 0.75}}
	}
	body := slices.Concat(encodeUpload(1, 7, preds, len(preds), true), encodeUpload(1, 5, other(5), 1, false),
		encodeUpload(1, 9, nil, 0, true), encodeUpload(1, 6, other(6), 1, false))
	got, err := read(body)
	if err != nil || len(got) != 4 ||
		got[0].ID != 7 || len(got[0].Upload) != 4 ||
		got[1].ID != 5 || got[1].Dropped || !slices.Equal(got[1].Upload, other(5)[:1]) ||
		!dropped(got[2], 9) ||
		got[3].ID != 6 || got[3].Dropped || !slices.Equal(got[3].Upload, other(6)[:1]) {
		t.Fatalf("four-user body: outcomes %+v, err %v", got, err)
	}
	// A body cut inside a frame ends its open stream as a short write.
	if got, err = read(body[:len(body)-3]); err != nil || len(got) != 4 || !got[3].Dropped {
		t.Fatalf("body cut inside user 6's chunk: outcomes %+v, err %v; want user 6 dropped", got, err)
	}

	// Protocol errors. The offending stream's user resolves as dropped
	// when the body names a hosted user it has not named before, and only
	// then.
	for _, tc := range []struct {
		name    string
		body    []byte
		want    string
		dropped []int // the users resolved, each as a drop
	}{
		{"count mismatch with end frame", encodeUpload(1, 7, preds, 2, true), "declared 4 predictions, carried 2", []int{7}},
		{"round mismatch", encodeUpload(2, 7, preds, 4, true), "names round 2", []int{7}},
		{"codec 1", withCodecByte(encodeUpload(1, 7, preds, 4, true), 1), "codec 1", nil},
		{"garbage", []byte("not a frame stream"), "magic", nil},
		{"a frame outside any stream", comm.AppendFrame(nil, comm.MsgAck, nil), "ack frame outside an upload stream", nil},
		{"an end frame outside any stream", comm.AppendFrame(nil, comm.MsgUploadEnd, nil), "outside an upload stream", nil},
		{"a foreign frame inside a stream", comm.AppendFrame(encodeUpload(1, 7, preds, 2, false), comm.MsgAck, nil), "inside an upload stream", []int{7}},
		{"user outside the session", encodeUpload(1, 12, nil, 0, true), "does not host user 12", nil},
	} {
		got, err := read(tc.body)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		var users []int
		for _, o := range got {
			if !o.Dropped {
				t.Fatalf("%s: resolved %+v, want drops only", tc.name, o)
			}
			users = append(users, o.ID)
		}
		if !slices.Equal(users, tc.dropped) {
			t.Fatalf("%s: dropped users %v, want %v", tc.name, users, tc.dropped)
		}
	}
	// A user repeated in one body is refused at the second begin frame, and
	// the first stream's outcome stands alone.
	got, err = read(append(encodeUpload(1, 7, preds, 4, true), encodeUpload(1, 7, preds, 4, true)...))
	if err == nil || !strings.Contains(err.Error(), "user 7 twice") || len(got) != 1 || got[0].Dropped {
		t.Fatalf("user 7 twice: outcomes %+v, err %v; want the complete first stream and the refusal", got, err)
	}

	// An item named twice is refused even when the repeat sits in a later
	// chunk (encodeUpload sends two predictions per chunk).
	repeated := append(slices.Clone(preds), comm.Prediction{User: 7, Item: 3, Score: 0.25})
	for _, sent := range []int{len(repeated), len(repeated) - 1} {
		got, err = read(encodeUpload(1, 7, repeated, sent, sent == len(repeated)))
		if sent == len(repeated) && (err == nil || !strings.Contains(err.Error(), "item 3 twice") || !dropped(got[0], 7)) {
			t.Fatalf("an upload naming item 3 twice: outcomes %+v, err = %v, want the repeat refusal", got, err)
		}
		if sent < len(repeated) && (err != nil || len(got[0].Upload) != sent) {
			t.Fatalf("the same upload cut before the repeat: outcomes %+v, err = %v, want the truncated prefix", got, err)
		}
	}

	// The declared count bounds the stream. A body that declares two
	// predictions and then never stops sending chunks is rejected at the
	// chunk that crosses the count — with no end frame in sight, so before
	// the bound this read buffered until memory ran out.
	begin := func(count int) []byte {
		return comm.AppendUploadBegin(nil, comm.UploadBegin{Round: 1, User: 7, Count: count})
	}
	chunk := comm.AppendUploadChunk(nil, preds[:3])
	endless := io.MultiReader(bytes.NewReader(begin(2)), &repeatReader{frame: chunk})
	if got, err = readBody(c, endless); err == nil || !strings.Contains(err.Error(), "more than the 2 predictions") || !dropped(got[0], 7) {
		t.Fatalf("overrunning stream: outcomes %+v, err = %v, want the declared-count rejection", got, err)
	}
	// Exactly the declared count and then a cut is still a truncated-at-the-
	// boundary responder, not an error.
	o, err = one(append(begin(3), chunk...))
	if err != nil || o.Dropped || len(o.Upload) != 3 {
		t.Fatalf("stream cut at the declared count: outcome %+v, err %v; want 3 predictions", o, err)
	}
	// A count no upload can have is refused before any chunk is read: more
	// predictions than items, and -1 (4294967295 on the wire).
	for _, count := range []int{c.split.NumItems + 1, -1} {
		if _, err = readBody(c, io.MultiReader(bytes.NewReader(begin(count)), &repeatReader{frame: chunk})); err == nil ||
			!strings.Contains(err.Error(), "upload-begin declares") {
			t.Fatalf("declared count %d: err = %v, want an up-front rejection", count, err)
		}
	}
}

// TestMalformedUploadOverHTTP drives protocol violations through the HTTP
// layer — garbage bytes, a well-formed stream that carries more predictions
// than it declared, and one whose begin frame names codec 1: the server
// answers 400 with MsgError, resolves the overrunning stream's slot as
// dropped (a second, valid upload for it is answered late), and the run
// still completes under the deadline.
func TestMalformedUploadOverHTTP(t *testing.T) {
	cfg := testConfig(models.KindMF, 1)
	cfg.Rounds = 1
	opts := testOptions()
	opts.Deadline = 300 * time.Millisecond

	c, err := New(testSplit(), cfg, opts)
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
	done := make(chan struct{})
	var h *fed.History
	go func() {
		defer close(done)
		h, _ = c.Run(ctx)
	}()
	// Post only once round 0 is open: an upload that arrives before the round
	// is announced is refused as never announced and resolves no slot, so
	// the retry below would then be accepted.
	if _, err := p.poll(ctx, 0); err != nil {
		t.Fatal(err)
	}

	post := func(body []byte) (int, comm.MsgType, []byte) {
		t.Helper()
		resp, err := srv.Client().Post(
			fmt.Sprintf("%s/v1/upload?token=%d&round=0", srv.URL, p.Token()),
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		mt, payload, err := comm.ReadFrame(resp.Body)
		if err != nil {
			t.Fatalf("upload reply: %v", err)
		}
		return resp.StatusCode, mt, payload
	}
	preds := []comm.Prediction{{User: 4, Item: 1, Score: 0.5}, {User: 4, Item: 2, Score: 0.25}}
	overrun := comm.AppendUploadBegin(nil, comm.UploadBegin{Round: 0, User: 4, Count: 1})
	overrun = comm.AppendUploadChunk(overrun, preds)
	overrun = comm.AppendFrame(overrun, comm.MsgUploadEnd, nil)
	for name, body := range map[string][]byte{"garbage": []byte(strings.Repeat("garbage", 4)), "overrun": overrun} {
		if status, mt, payload := post(body); status != http.StatusBadRequest || mt != comm.MsgError {
			t.Fatalf("%s upload reply: %d %v %q, want 400 and MsgError", name, status, mt, payload)
		}
	}
	// A well-formed stream whose begin frame names codec 1, the retired
	// quantized codec's id.
	foreign := withCodecByte(encodeUpload(0, 5, []comm.Prediction{{User: 5, Item: 1, Score: 0.5}}, 1, true), 1)
	if status, mt, payload := post(foreign); status != http.StatusBadRequest || mt != comm.MsgError || !strings.Contains(string(payload), "codec 1") {
		t.Fatalf("upload naming codec 1: %d %v %q, want 400 and the codec refusal", status, mt, payload)
	}
	// The overrun resolved user 4's slot as dropped: a well-formed retry finds
	// the slot gone.
	if status, mt, payload := post(encodeUpload(0, 4, preds, len(preds), true)); status != http.StatusConflict || mt != comm.MsgError || !strings.Contains(string(payload), "closed") {
		t.Fatalf("upload after a rejected one: %d %v %q, want 409 and the round-closed refusal", status, mt, payload)
	}

	<-done
	if h == nil || len(h.Rounds) != 1 {
		t.Fatalf("run did not complete after malformed upload: %+v", h)
	}
	if h.Rounds[0].Dropped == 0 {
		t.Fatal("malformed upload should have left its user dropped")
	}
}

// TestUploadRejectsForeignPredictions posts well-framed round-0 uploads whose
// predictions break the round engine's contract — one naming a user outside
// the universe, one an item outside the catalogue, one a NaN score, one an
// item twice — beside one honest upload, to a LightGCN server. Unchecked, the
// first panics Coordinator.Run in the upload store, the second in the graph
// engine, the third turns the round's ServerLoss into NaN, and the fourth
// counts its item twice in the confidence counters and the graph. Honest
// predictions under a begin frame whose loss is NaN, negative or infinite, or
// whose attack F1 is NaN or outside [0, 1], would reach RoundStats and the
// History as sent.
// Each must be refused 400 with a MsgError frame and its user dropped, and
// the round must train and report on the honest upload alone.
func TestUploadRejectsForeignPredictions(t *testing.T) {
	cfg := testConfig(models.KindLightGCN, 1)
	cfg.Rounds = 1
	opts := testOptions()
	opts.Deadline = time.Second

	sp := testSplit()
	c, err := New(sp, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	p, err := Join(srv.URL, 0, sp.NumUsers, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var h *fed.History
	var runErr error
	go func() {
		defer close(done)
		h, runErr = c.Run(ctx)
	}()
	// Post only once round 0 is announced, so the honest upload is not a
	// straggler.
	c.mu.Lock()
	sess := c.sessions[p.Token()]
	c.mu.Unlock()
	if events, wake, _ := c.eventsAfter(sess, 0); len(events) == 0 {
		<-wake
	}

	post := func(body []byte) (int, comm.MsgType, []byte) {
		t.Helper()
		resp, err := srv.Client().Post(
			fmt.Sprintf("%s/v1/upload?token=%d&round=0", srv.URL, p.Token()),
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		mt, payload, err := comm.ReadFrame(resp.Body)
		if err != nil {
			t.Fatalf("upload reply: %v", err)
		}
		return resp.StatusCode, mt, payload
	}
	honest := func(u int) []comm.Prediction {
		return []comm.Prediction{{User: u, Item: 1, Score: 0.9}, {User: u, Item: 2, Score: 0.75}}
	}
	type upload struct {
		preds          []comm.Prediction
		loss, attackF1 float64
	}
	hostile := map[int]upload{
		3:  {[]comm.Prediction{{User: sp.NumUsers + 1000, Item: 1, Score: 0.9}, {User: 3, Item: 2, Score: 0.75}}, 0.25, 0.5},
		4:  {[]comm.Prediction{{User: 4, Item: 1, Score: 0.9}, {User: 4, Item: sp.NumItems + 7, Score: 0.9}}, 0.25, 0.5},
		5:  {[]comm.Prediction{{User: 5, Item: 1, Score: 0.9}, {User: 5, Item: 2, Score: math.NaN()}}, 0.25, 0.5},
		13: {[]comm.Prediction{{User: 13, Item: 2, Score: 0.9}, {User: 13, Item: 2, Score: 0.75}}, 0.25, 0.5},
		7:  {honest(7), math.NaN(), 0.5},
		8:  {honest(8), -0.5, 0.5},
		9:  {honest(9), math.Inf(1), 0.5},
		10: {honest(10), 0.25, math.NaN()},
		11: {honest(11), 0.25, -0.1},
		12: {honest(12), 0.25, 1.5},
	}
	for user, up := range hostile {
		status, mt, payload := post(encodeUploadMetrics(0, user, up.preds, len(up.preds), true, up.loss, up.attackF1))
		if status != http.StatusBadRequest || mt != comm.MsgError {
			t.Fatalf("user %d hostile upload: reply %d %v %q, want 400 and MsgError", user, status, mt, payload)
		}
	}
	if status, mt, payload := post(encodeUpload(0, 6, honest(6), 2, true)); status != http.StatusOK || mt != comm.MsgAck {
		t.Fatalf("honest upload: reply %d %v %q, want 200 and MsgAck", status, mt, payload)
	}
	// A refusal resolved its slot: an honest retry finds it gone.
	if status, _, _ := post(encodeUpload(0, 3, honest(3), 2, true)); status != http.StatusConflict {
		t.Fatalf("honest retry after a refusal: status %d, want 409", status)
	}

	<-done
	if runErr != nil || h == nil || len(h.Rounds) != 1 {
		t.Fatalf("run did not complete: %v %+v", runErr, h)
	}
	r := h.Rounds[0]
	if r.Dropped != sp.NumUsers-1 {
		t.Fatalf("%d of %d users dropped, want all but the honest uploader", r.Dropped, sp.NumUsers)
	}
	if math.IsNaN(r.ServerLoss) || math.IsInf(r.ServerLoss, 0) || r.ServerLoss <= 0 {
		t.Fatalf("ServerLoss = %v, want the finite loss of the honest upload", r.ServerLoss)
	}
	if r.ClientLoss != 0.25 || r.AttackF1 != 0.5 {
		t.Fatalf("ClientLoss %v, AttackF1 %v: want the honest upload's 0.25 and 0.5", r.ClientLoss, r.AttackF1)
	}
}

// TestPollCursorBounds pins the poll cursor's validation: a cursor outside the
// session's event log — negative, one past the end, absurdly large — gets a
// MsgError frame, and the coordinator keeps answering afterwards. A negative
// cursor used to slice the log out of range while holding the coordinator's
// mutex, which net/http's panic recovery then left locked forever; so after
// every rejected poll Sessions() must return promptly, and the same
// coordinator must still complete a run bitwise-equal to the in-process one.
func TestPollCursorBounds(t *testing.T) {
	cfg := testConfig(models.KindNeuMF, 1)
	c, err := New(testSplit(), cfg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var parts []*Participant
	for _, r := range [][2]int{{0, 20}, {20, 40}} {
		p, err := Join(srv.URL, r[0], r[1], srv.Client())
		if err != nil {
			t.Fatalf("join [%d, %d): %v", r[0], r[1], err)
		}
		parts = append(parts, p)
	}
	token := parts[0].Token()
	c.mu.Lock()
	logged := len(c.sessions[token].events)
	c.mu.Unlock()

	// A bounded client: against the leaked lock a retried poll would park in
	// the handler forever, and the test should fail, not hang.
	client := *srv.Client()
	client.Timeout = 5 * time.Second
	for _, after := range []int64{-1, int64(logged) + 1, 1 << 62} {
		resp, err := client.Get(fmt.Sprintf("%s/v1/poll?token=%d&after=%d", srv.URL, token, after))
		if err != nil {
			t.Errorf("poll after=%d: %v", after, err)
		} else {
			mt, payload, err := comm.ReadFrame(resp.Body)
			resp.Body.Close()
			if err != nil || mt != comm.MsgError {
				t.Errorf("poll after=%d: reply %v %q (%v), want MsgError", after, mt, payload, err)
			}
		}
		answered := make(chan int, 1)
		go func() { answered <- c.Sessions() }()
		select {
		case n := <-answered:
			if n != len(parts) {
				t.Fatalf("after poll after=%d: %d sessions, want %d", after, n, len(parts))
			}
		case <-time.After(time.Second):
			t.Fatalf("Sessions() blocked after poll after=%d: the handler leaked the coordinator's lock", after)
		}
	}

	errs := make(chan error, len(parts))
	for _, p := range parts {
		go func(p *Participant) { errs <- p.Run(ctx) }(p)
	}
	h, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator run after rejected polls: %v", err)
	}
	for range parts {
		if err := <-errs; err != nil {
			t.Fatalf("participant: %v", err)
		}
	}
	requireEqualHistories(t, "after rejected polls", referenceHistory(t, cfg), h)
}

// TestUploadToleratesOnlyConflict pins the straggler contract on the status
// code, not the refusal's wording: a wave's upload answered 409 with any text
// means "the round closed without you, carry on"; a MsgError under any other
// status is fatal even when its text says "closed", and so is a 200 that
// acknowledges fewer users than the body carried.
func TestUploadToleratesOnlyConflict(t *testing.T) {
	cfg := testConfig(models.KindMF, 1)
	host, err := fed.NewClientHost(testSplit(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		status int
		text   string // the MsgError frame's; none when empty
		fatal  bool
	}{
		{http.StatusOK, "coord: round 0 closed for user 3", true},
		{http.StatusOK, "", true},
		{http.StatusServiceUnavailable, "coord: closed for maintenance", true},
		{http.StatusConflict, "coord: round 0 closed for user 3", false},
		{http.StatusConflict, "reworded: too late", false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(tc.status)
			if tc.text != "" {
				comm.WriteFrame(w, comm.MsgError, []byte(tc.text))
			}
		}))
		p := &Participant{base: srv.URL, hc: srv.Client(), lo: 0, hi: 40, cfg: cfg, host: host}
		err := p.runUsers(context.Background(), 0, []int{3}, []int{0})
		srv.Close()
		if (err != nil) != tc.fatal {
			t.Fatalf("status %d, text %q: the wave's upload returned %v, want fatal=%v", tc.status, tc.text, err, tc.fatal)
		}
	}
}

// TestRunRefusesAnnouncementBeforeRoundEnd pins the participant's check on
// the order of its poll stream: round 2 announced before round 0's end marker
// would overwrite round 1's held gated wave, whose users would then never
// upload. Run returns the schedule's refusal instead, after the waves it
// launched have finished.
func TestRunRefusesAnnouncementBeforeRoundEnd(t *testing.T) {
	var uploads atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/poll":
			for round := 0; round < 3; round++ {
				w.Write(comm.AppendRoundStart(nil, comm.RoundStart{Round: round, Users: []int{3}}))
			}
		case "/v1/upload":
			uploads.Add(1)
			comm.WriteFrame(w, comm.MsgAck, nil)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	cfg := testConfig(models.KindMF, 1)
	host, err := fed.NewClientHost(testSplit(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &Participant{base: srv.URL, hc: srv.Client(), lo: 0, hi: 40, cfg: cfg, host: host}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = p.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "round 2 announced while round 1's gated wave") {
		t.Fatalf("Run on RS(0), RS(1), RS(2) = %v, want the refusal of round 2's announcement", err)
	}
	if n := uploads.Load(); n != 1 {
		t.Fatalf("Run returned after %d uploads, want round 0's one (round 1's user is held)", n)
	}
}

// TestRunRefusesBadDispersal pins the participant's check on what it is
// pushed: a dispersal whose predictions name another user, an item outside
// the catalogue or a score outside [0, 1] (NaN included) would become
// training data — a graph client's engine panics staging the item, an MF
// client grows a phantom row, a NaN label turns the model NaN. Run returns
// the refusal, naming the prediction, instead of delivering it, and leaves
// the session, so the coordinator stops waiting on its users.
func TestRunRefusesBadDispersal(t *testing.T) {
	sp := testSplit()
	const user = 3
	for name, bad := range map[string]comm.Prediction{
		"other user":   {User: user + 1, Item: 0, Score: 0.5},
		"item too big": {User: user, Item: sp.NumItems, Score: 0.5},
		"score above":  {User: user, Item: 0, Score: 1.5},
		"score NaN":    {User: user, Item: 0, Score: math.NaN()},
	} {
		t.Run(name, func(t *testing.T) {
			preds := []comm.Prediction{{User: user, Item: 1, Score: 0.5}, bad}
			var left atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/poll":
					w.Write(comm.AppendDisperse(nil, comm.Disperse{User: user, Preds: preds}))
					comm.WriteFrame(w, comm.MsgShutdown, nil)
				case "/v1/leave":
					left.Add(1)
					comm.WriteFrame(w, comm.MsgAck, nil)
				default:
					http.NotFound(w, r)
				}
			}))
			defer srv.Close()
			cfg := testConfig(models.KindMF, 1)
			host, err := fed.NewClientHost(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := &Participant{base: srv.URL, hc: srv.Client(), lo: 0, hi: 40, cfg: cfg, host: host}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err = p.Run(ctx)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("prediction %+v", bad)) {
				t.Fatalf("Run on a dispersal carrying %+v = %v, want a refusal naming it", bad, err)
			}
			if n := left.Load(); n != 1 {
				t.Fatalf("Run refused the dispersal and left %d times, want once", n)
			}
		})
	}
}

// TestRunRefusesBadRoundStart pins the participant's check on a round-start
// announcement: a user past the hosted range is refused before any client
// trains — one past the catalogue would index past the host's clients and
// panic on a worker goroutine, a catalogue user another participant hosts
// would be trained anyway — and so is a user named twice, whose client would
// train on two goroutines at once.
func TestRunRefusesBadRoundStart(t *testing.T) {
	sp := testSplit()
	for name, c := range map[string]struct {
		hi    int
		users []int
		want  string
	}{
		"user at hi":       {20, []int{3, 20}, "user 20 outside hosted range [0, 20)"},
		"user at NumUsers": {sp.NumUsers, []int{3, sp.NumUsers}, fmt.Sprintf("user %d outside hosted range [0, %d)", sp.NumUsers, sp.NumUsers)},
		"duplicate":        {sp.NumUsers, []int{3, 5, 3}, "user 3 twice"},
	} {
		t.Run(name, func(t *testing.T) {
			var uploads atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/poll":
					w.Write(comm.AppendRoundStart(nil, comm.RoundStart{Round: 0, Users: c.users}))
					comm.WriteFrame(w, comm.MsgShutdown, nil)
				case "/v1/upload":
					uploads.Add(1)
					comm.WriteFrame(w, comm.MsgAck, nil)
				case "/v1/leave":
					comm.WriteFrame(w, comm.MsgAck, nil)
				default:
					http.NotFound(w, r)
				}
			}))
			defer srv.Close()
			cfg := testConfig(models.KindMF, 1)
			host, err := fed.NewClientHost(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := &Participant{base: srv.URL, hc: srv.Client(), lo: 0, hi: c.hi, cfg: cfg, host: host}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err = p.Run(ctx)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run on RS(0) for users %v hosting [0, %d) = %v, want the refusal %q", c.users, c.hi, err, c.want)
			}
			if n := uploads.Load(); n != 0 {
				t.Fatalf("Run uploaded %d results before refusing the announcement", n)
			}
		})
	}
}

// TestRebuildRefusesBadPrivacyWindow pins that a participant validates the
// config a join-ack carries before hosting anyone: γ window [3, 1] would
// otherwise pass construction and panic in the upload sampler of the first
// client round, on a worker goroutine that takes the process down.
func TestRebuildRefusesBadPrivacyWindow(t *testing.T) {
	sp := testSplit()
	cfg := testConfig(models.KindMF, 1)
	cfg.Privacy.GammaMin, cfg.Privacy.GammaMax = 3, 1
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ack := comm.JoinAck{NumUsers: sp.NumUsers, NumItems: sp.NumItems, DataSeed: testSeed, TestFrac: testFrac,
		Profile: data.Tiny.Name, ConfigJSON: cfgJSON}
	p := &Participant{lo: 0, hi: sp.NumUsers}
	if err := p.rebuild(ack); err == nil || !strings.Contains(err.Error(), "γ window") {
		t.Fatalf("rebuild of a join-ack with γ window [3, 1] = %v, want the validation error", err)
	}
	if p.host != nil {
		t.Fatal("rebuild built a client host for a config it refused")
	}
}
