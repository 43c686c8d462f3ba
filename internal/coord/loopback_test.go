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
	c, err := New(testSplit(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
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
// FaultPlan's dropouts arrive as empty upload bodies and its truncations as
// upload streams cut before MsgUploadEnd, and the server-side classification
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
// included (this coordinator never runs, so it announces none), and none of
// it registers or drops a session.
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
	tok := p.Token()
	join := func(lo, hi int) []byte {
		return comm.AppendFrame(nil, comm.MsgJoin, comm.EncodeJoin(comm.Join{UserLo: lo, UserHi: hi}))
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
		{"leave: missing token", "/v1/leave", nil},
		{"leave: malformed token", "/v1/leave?token=x", nil},
		{"leave: unknown token", fmt.Sprintf("/v1/leave?token=%d", tok^1), nil},
		{"poll: unknown token", fmt.Sprintf("/v1/poll?token=%d&after=0", tok^1), nil},
		{"poll: missing after", fmt.Sprintf("/v1/poll?token=%d", tok), nil},
		{"poll: malformed after", fmt.Sprintf("/v1/poll?token=%d&after=x", tok), nil},
		{"poll: cursor outside the log", fmt.Sprintf("/v1/poll?token=%d&after=5", tok), nil},
		{"upload: missing token", "/v1/upload?round=0&user=0", nil},
		{"upload: missing round", fmt.Sprintf("/v1/upload?token=%d&user=0", tok), nil},
		{"upload: malformed round", fmt.Sprintf("/v1/upload?token=%d&round=x&user=0", tok), nil},
		{"upload: missing user", fmt.Sprintf("/v1/upload?token=%d&round=0", tok), nil},
		{"upload: user not hosted", fmt.Sprintf("/v1/upload?token=%d&round=0&user=25", tok), nil},
		{"upload: round never announced", fmt.Sprintf("/v1/upload?token=%d&round=0&user=0", tok), encodeUpload(0, 0, []comm.Prediction{{User: 0, Item: 1, Score: 0.5}}, 1, true)},
		{"upload: negative round", fmt.Sprintf("/v1/upload?token=%d&round=-1&user=0", tok), nil},
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
	var b bytes.Buffer
	comm.WriteFrame(&b, comm.MsgUploadBegin, comm.EncodeUploadBegin(comm.UploadBegin{
		Round: round, User: user, Count: len(preds),
		Loss: loss, AttackF1: attackF1,
	}))
	payload := comm.EncodePredictions(preds)[:sendPreds*comm.PredictionWireSize]
	for off := 0; off < len(payload); off += 2 * comm.PredictionWireSize {
		hi := min(off+2*comm.PredictionWireSize, len(payload))
		comm.WriteFrame(&b, comm.MsgUploadChunk, payload[off:hi])
	}
	if end {
		comm.WriteFrame(&b, comm.MsgUploadEnd, nil)
	}
	return b.Bytes()
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

// TestReadUploadClassification pins the server-side body classification:
// empty body → drop, missing end frame → truncated prefix, end frame →
// complete, and protocol violations → errors.
func TestReadUploadClassification(t *testing.T) {
	c := &Coordinator{split: testSplit()}
	preds := []comm.Prediction{
		{User: 7, Item: 3, Score: 0.5},
		{User: 7, Item: 9, Score: 0},
		{User: 7, Item: 12, Score: 1},
		{User: 7, Item: 44, Score: 0.125},
	}

	o, err := c.readUpload(bytes.NewReader(nil), 1, 7)
	if err != nil || !o.Dropped {
		t.Fatalf("empty body: outcome %+v, err %v; want a drop", o, err)
	}

	o, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, preds, len(preds), true)), 1, 7)
	if err != nil || o.Dropped || len(o.Upload) != len(preds) {
		t.Fatalf("complete body: outcome %+v, err %v; want %d predictions", o, err, len(preds))
	}
	for i := range preds {
		if o.Upload[i] != preds[i] {
			t.Fatalf("complete body: prediction %d = %+v, want %+v", i, o.Upload[i], preds[i])
		}
	}
	if o.UploadBytes != len(preds)*comm.PredictionWireSize {
		t.Fatalf("complete body: UploadBytes = %d, want %d", o.UploadBytes, len(preds)*comm.PredictionWireSize)
	}
	if o.Loss != 0.25 || o.AttackF1 != 0.5 {
		t.Fatalf("complete body: metrics %v/%v did not survive the begin frame", o.Loss, o.AttackF1)
	}

	o, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, preds, 2, false)), 1, 7)
	if err != nil || o.Dropped || len(o.Upload) != 2 {
		t.Fatalf("truncated body: outcome %+v, err %v; want the 2-prediction prefix", o, err)
	}

	o, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, preds, 0, false)), 1, 7)
	if err != nil || !o.Dropped {
		t.Fatalf("begin-only body: outcome %+v, err %v; want a drop", o, err)
	}

	if _, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, preds, 2, true)), 1, 7); err == nil {
		t.Fatal("count mismatch with end frame must be a protocol error")
	}
	if _, err = c.readUpload(bytes.NewReader(encodeUpload(2, 7, preds, 4, true)), 1, 7); err == nil {
		t.Fatal("round mismatch must be a protocol error")
	}
	if _, err = c.readUpload(bytes.NewReader(withCodecByte(encodeUpload(1, 7, preds, 4, true), 1)), 1, 7); err == nil ||
		!strings.Contains(err.Error(), "codec 1") {
		t.Fatalf("a begin frame naming codec 1: err = %v, want the codec refusal", err)
	}
	if _, err = c.readUpload(bytes.NewReader([]byte("not a frame stream")), 1, 7); err == nil {
		t.Fatal("garbage bytes must be a protocol error")
	}
	if _, err = c.readUpload(bytes.NewReader(comm.AppendFrame(nil, comm.MsgAck, nil)), 1, 7); err == nil {
		t.Fatal("a non-begin opening frame must be a protocol error")
	}
	// An item named twice is refused even when the repeat sits in a later
	// chunk (encodeUpload sends two predictions per chunk).
	repeated := append(slices.Clone(preds), comm.Prediction{User: 7, Item: 3, Score: 0.25})
	for _, sent := range []int{len(repeated), len(repeated) - 1} {
		_, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, repeated, sent, sent == len(repeated))), 1, 7)
		if sent == len(repeated) && (err == nil || !strings.Contains(err.Error(), "item 3 twice")) {
			t.Fatalf("an upload naming item 3 twice: err = %v, want the repeat refusal", err)
		}
		if sent < len(repeated) && err != nil {
			t.Fatalf("the same upload cut before the repeat: err = %v, want the truncated prefix", err)
		}
	}

	// The declared count bounds the stream. A body that declares two
	// predictions and then never stops sending chunks is rejected at the
	// chunk that crosses the count — with no end frame in sight, so before
	// the bound this read buffered until memory ran out.
	begin := func(count int) []byte {
		return comm.AppendFrame(nil, comm.MsgUploadBegin, comm.EncodeUploadBegin(comm.UploadBegin{
			Round: 1, User: 7, Count: count,
		}))
	}
	chunk := comm.AppendFrame(nil, comm.MsgUploadChunk, comm.EncodePredictions(preds[:3]))
	endless := io.MultiReader(bytes.NewReader(begin(2)), &repeatReader{frame: chunk})
	if _, err = c.readUpload(endless, 1, 7); err == nil || !strings.Contains(err.Error(), "more than the 2 predictions") {
		t.Fatalf("overrunning stream: err = %v, want the declared-count rejection", err)
	}
	// Exactly the declared count and then a cut is still a truncated-at-the-
	// boundary responder, not an error.
	o, err = c.readUpload(bytes.NewReader(append(begin(3), chunk...)), 1, 7)
	if err != nil || o.Dropped || len(o.Upload) != 3 {
		t.Fatalf("stream cut at the declared count: outcome %+v, err %v; want 3 predictions", o, err)
	}
	// A count no upload can have is refused before any chunk is read: more
	// predictions than items, and -1 (4294967295 on the wire).
	for _, count := range []int{c.split.NumItems + 1, -1} {
		if _, err = c.readUpload(io.MultiReader(bytes.NewReader(begin(count)), &repeatReader{frame: chunk}), 1, 7); err == nil ||
			!strings.Contains(err.Error(), "upload-begin declares") {
			t.Fatalf("declared count %d: err = %v, want an up-front rejection", count, err)
		}
	}
}

// TestMalformedUploadOverHTTP drives protocol violations through the HTTP
// layer — garbage bytes, a well-formed stream that carries more predictions
// than it declared, and one whose begin frame names codec 1: the server
// answers 400 with MsgError, resolves the
// slot as dropped (a second, valid upload for it is refused), and the run
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

	post := func(user int, body []byte) (int, comm.MsgType, []byte) {
		t.Helper()
		resp, err := srv.Client().Post(
			fmt.Sprintf("%s/v1/upload?token=%d&round=0&user=%d", srv.URL, p.Token(), user),
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		mt, payload, err := comm.ReadFrame(resp.Body)
		if err != nil {
			t.Fatalf("user %d upload reply: %v", user, err)
		}
		return resp.StatusCode, mt, payload
	}
	preds := []comm.Prediction{{User: 4, Item: 1, Score: 0.5}, {User: 4, Item: 2, Score: 0.25}}
	overrun := comm.AppendFrame(nil, comm.MsgUploadBegin, comm.EncodeUploadBegin(comm.UploadBegin{
		Round: 0, User: 4, Count: 1,
	}))
	overrun = comm.AppendFrame(overrun, comm.MsgUploadChunk, comm.EncodePredictions(preds))
	overrun = comm.AppendFrame(overrun, comm.MsgUploadEnd, nil)
	for user, body := range map[int][]byte{3: []byte(strings.Repeat("garbage", 4)), 4: overrun} {
		if status, mt, payload := post(user, body); status != http.StatusBadRequest || mt != comm.MsgError {
			t.Fatalf("user %d malformed upload reply: %d %v %q, want 400 and MsgError", user, status, mt, payload)
		}
	}
	// A well-formed stream whose begin frame names codec 1, the retired
	// quantized codec's id.
	foreign := withCodecByte(encodeUpload(0, 5, []comm.Prediction{{User: 5, Item: 1, Score: 0.5}}, 1, true), 1)
	if status, mt, payload := post(5, foreign); status != http.StatusBadRequest || mt != comm.MsgError || !strings.Contains(string(payload), "codec 1") {
		t.Fatalf("upload naming codec 1: %d %v %q, want 400 and the codec refusal", status, mt, payload)
	}
	// The overrun resolved user 4's slot as dropped: a well-formed retry finds
	// the slot gone.
	if _, mt, payload := post(4, encodeUpload(0, 4, preds, len(preds), true)); mt != comm.MsgError || !strings.Contains(string(payload), "closed") {
		t.Fatalf("upload after a rejected one: %v %q, want the round-closed refusal", mt, payload)
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

	post := func(user int, body []byte) (int, comm.MsgType, []byte) {
		t.Helper()
		resp, err := srv.Client().Post(
			fmt.Sprintf("%s/v1/upload?token=%d&round=0&user=%d", srv.URL, p.Token(), user),
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		mt, payload, err := comm.ReadFrame(resp.Body)
		if err != nil {
			t.Fatalf("user %d upload reply: %v", user, err)
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
		status, mt, payload := post(user, encodeUploadMetrics(0, user, up.preds, len(up.preds), true, up.loss, up.attackF1))
		if status != http.StatusBadRequest || mt != comm.MsgError {
			t.Fatalf("user %d hostile upload: reply %d %v %q, want 400 and MsgError", user, status, mt, payload)
		}
	}
	if status, mt, payload := post(6, encodeUpload(0, 6, honest(6), 2, true)); status != http.StatusOK || mt != comm.MsgAck {
		t.Fatalf("honest upload: reply %d %v %q, want 200 and MsgAck", status, mt, payload)
	}
	// A refusal resolved its slot: an honest retry finds it gone.
	if status, _, _ := post(3, encodeUpload(0, 3, honest(3), 2, true)); status != http.StatusConflict {
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
// code, not the refusal's wording: 409 with any text means "the round closed
// without you, carry on"; a MsgError under any other status is fatal even
// when its text says "closed".
func TestUploadToleratesOnlyConflict(t *testing.T) {
	for _, tc := range []struct {
		status int
		text   string
		fatal  bool
	}{
		{http.StatusOK, "coord: round 0 closed for user 3", true},
		{http.StatusServiceUnavailable, "coord: closed for maintenance", true},
		{http.StatusConflict, "coord: round 0 closed for user 3", false},
		{http.StatusConflict, "reworded: too late", false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tc.status)
			comm.WriteFrame(w, comm.MsgError, []byte(tc.text))
		}))
		p := &Participant{base: srv.URL, hc: srv.Client()}
		err := p.upload(context.Background(), 0, fed.ClientRoundResult{ID: 3, Dropped: true})
		srv.Close()
		if (err != nil) != tc.fatal {
			t.Fatalf("status %d, text %q: upload returned %v, want fatal=%v", tc.status, tc.text, err, tc.fatal)
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
				comm.WriteFrame(w, comm.MsgRoundStart, comm.EncodeRoundStart(comm.RoundStart{Round: round, Users: []int{3}}))
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
// the refusal, naming the prediction, instead of delivering it.
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
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/poll":
					comm.WriteFrame(w, comm.MsgDisperse, comm.EncodeDisperse(comm.Disperse{
						User: user, Payload: comm.EncodePredictions(preds)}))
					comm.WriteFrame(w, comm.MsgShutdown, nil)
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
			p := &Participant{base: srv.URL, hc: srv.Client(), lo: 0, hi: 40, cfg: cfg, host: host}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err = p.Run(ctx)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("prediction %+v", bad)) {
				t.Fatalf("Run on a dispersal carrying %+v = %v, want a refusal naming it", bad, err)
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
					comm.WriteFrame(w, comm.MsgRoundStart, comm.EncodeRoundStart(comm.RoundStart{Round: 0, Users: c.users}))
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
