// Package coord is the networked deployment of PTF-FedRec: an HTTP
// coordinator service wrapping fed.RoundEngine, and a Participant that runs
// fed.ClientHost against it speaking only the comm wire protocol.
//
// The transport carries nothing the protocol does not: registration
// (join/leave), streamed upload bodies, and a long-poll channel over which
// round announcements, dispersals and round-end markers are pushed. Both
// halves derive their
// randomness purely from the shared seed, so a coordinator plus any
// partition of users across participants reproduces the in-process
// fed.Trainer history bitwise — the loopback suite pins exactly that. The
// coordinator runs its rounds through the trainer's own fed.RoundEngine.Run,
// announcing round r+1 while round r collects and evaluating a due round
// during its dispersal. A participant schedules its clients through the
// trainer's own fed.Waves: a round's announcement starts the users who sat
// out the previous round, and that round's end marker starts the rest.
//
// A participant uploads each wave of a round's users through one request:
// the body is a sequence of per-user streams (begin frame, prediction
// chunks, end frame), each framed straight into the wave's buffered body,
// and the coordinator resolves each user's slot the moment its stream ends.
// Fault semantics follow real transports: a stream whose begin frame
// declares no predictions and ends is a dropped client, and a stream cut
// before its end frame — by the next begin frame, the body's end or a
// severed connection — is a short write (the server keeps the received
// prefix; with none, the client is dropped). Anything else a body gets wrong is a protocol error (readUploads lists them: bad framing,
// a user the session does not host or the body already named, a count the
// stream does not keep, a prediction that would break
// fed.RoundEngine.CloseRound's contract), answered 400 with a MsgError frame
// and the offending stream's slot resolved as dropped. A participant holds
// each pushed dispersal to the same prediction rule and ends its run on one
// that breaks it. A round with a configured straggler deadline closes with
// partial participation — pending clients become dropped — instead of
// waiting forever, even while a body still streams.
//
// Every refusal carries a MsgError frame and a 4xx status, never 200: an
// upload body naming a user whose announced round no longer takes uploads
// answers 409, one MsgError frame per late user beside the accepted users'
// MsgAck frames (a straggler's participant carries on); 400 answers
// everything else — a bad join frame or range, a join body with bytes after
// its frame, a missing, malformed or unknown token, round or cursor (a round
// never announced included), and a malformed upload body.
//
// Every frame is built by its message's comm appender. The round engine hands
// over dispersals as values; publishing frames each one as its MsgDisperse
// event in one allocation (comm.AppendDisperse), and the coordinator keeps
// nothing else of it.
// A dispersal is relative to its own round: Eq. 9 excludes the items of the
// upload that produced it (fed.RoundEngine.CloseRound). A dispersal published
// while no session hosts its user is retained as that framed event, and a
// session that joins to host the user receives it in its join's first events;
// it still excludes its round-t upload, whenever it arrives.
//
// Each session's event log holds only what its participant has not
// acknowledged: a poll's cursor acknowledges every event before it, and the
// log is trimmed there. A session that never polls keeps its whole log.
package coord

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ptffedrec/internal/bitset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/fed"
)

// pollWait is how long a /v1/poll request parks before returning a
// heartbeat. A variable so tests can shrink it.
var pollWait = 25 * time.Second

// pendingDispersals bounds the retention store for undelivered dispersals
// (users nobody hosted when their round was published): at most this many
// users keep their latest undelivered D̃ᵢ, evicted oldest-stash-first. A
// joining session takes its range's retained dispersals into its event log at
// once, so no live session's user is ever retained. A variable so tests can
// shrink it.
var pendingDispersals = 4096

// Options configures the coordinator service beyond the protocol Config.
type Options struct {
	// Profile names the synthetic dataset profile participants rebuild their
	// split from (data.ProfileByName); DataSeed and TestFrac complete the
	// split recipe. These ride the JoinAck.
	Profile  string
	DataSeed uint64
	TestFrac float64

	// Deadline bounds how long a round waits for its pending uploads once
	// fed.RoundEngine.Run starts collecting it: round 0 at once, a later
	// round when the round before it has been published, which under the
	// pipelined schedule is after its announcement. Zero waits forever. When
	// it expires the round closes with the stragglers counted as dropped.
	Deadline time.Duration
}

// session is one registered participant process hosting users [lo, hi).
type session struct {
	token  uint64
	lo, hi int

	// events is the unacknowledged tail of the session's log of framed
	// RoundStart/Disperse/RoundEnd/Shutdown messages: events[0] is absolute
	// event number base. A poll with cursor after acknowledges every event
	// before it, so the log is trimmed there and /v1/poll serves the rest.
	// wake, when a poll is parked on an empty tail, is closed by the next
	// event.
	events [][]byte
	base   int64
	wake   chan struct{}
}

// roundState tracks one announced round until it is published. Every slot
// starts as a dropped outcome; awaiting maps each hosted cohort member whose
// upload has not resolved to its outcome slot (Select order). The round takes
// no further uploads once awaiting is empty, and done is closed then.
type roundState struct {
	awaiting map[int]int
	outcomes []fed.ClientOutcome
	done     chan struct{}
}

// resolve stops awaiting user u, whose outcome is already in its slot, and
// closes done when u was the last awaited upload: waitRound reads the
// outcomes without the lock once done is closed. c.mu held; u must be awaited.
func (rs *roundState) resolve(u int) {
	delete(rs.awaiting, u)
	if len(rs.awaiting) == 0 {
		close(rs.done)
	}
}

// Coordinator serves the PTF-FedRec server side over HTTP: participant
// lifecycle, per-round cohort announcements, upload ingestion, and dispersal
// delivery, with fed.RoundEngine doing all protocol computation.
type Coordinator struct {
	engine     *fed.RoundEngine
	split      *data.Split
	opts       Options
	configJSON []byte
	evaluator  *eval.Evaluator

	mu sync.Mutex
	// sessions finds a live session by token; hosts holds the same sessions
	// sorted by lo, the registry that answers who hosts a user.
	sessions map[uint64]*session
	hosts    []*session
	rounds   map[int]*roundState
	opened   int  // rounds openRound has announced: 0 .. opened-1
	down     bool // run finished; new joins get an immediate shutdown

	// pending retains each user's latest undelivered dispersal as its framed
	// event (bounded by pendingDispersals); pendingQ holds the same users in
	// stash order, oldest first, for eviction.
	pending  map[int][]byte
	pendingQ []int

	// wireIn/wireOut count every frame byte crossing the HTTP boundary —
	// framing included, so more than the History's protocol byte totals.
	wireIn, wireOut atomic.Int64
}

// New builds a coordinator for the split. cfg drives the embedded round
// engine; opts describes the world participants reconstruct and the round
// deadline policy.
func New(sp *data.Split, cfg fed.Config, opts Options) (*Coordinator, error) {
	engine, err := fed.NewRoundEngine(sp.NumUsers, sp.NumItems, cfg)
	if err != nil {
		return nil, err
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("coord: marshal config: %w", err)
	}
	return &Coordinator{
		engine:     engine,
		split:      sp,
		opts:       opts,
		configJSON: cfgJSON,
		sessions:   make(map[uint64]*session),
		rounds:     make(map[int]*roundState),
		pending:    make(map[int][]byte),
	}, nil
}

// Engine exposes the embedded round engine (final model, config, evaluation).
func (c *Coordinator) Engine() *fed.RoundEngine { return c.engine }

// WireBytes reports total frame bytes received and sent over the transport.
func (c *Coordinator) WireBytes() (in, out int64) {
	return c.wireIn.Load(), c.wireOut.Load()
}

// Sessions reports the number of registered participant sessions; a server
// can hold the run until enough hosts have joined.
func (c *Coordinator) Sessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}

// ShareEvaluator hands the coordinator a prebuilt evaluator for its split
// (see fed.Trainer.ShareEvaluator for what that saves). Call before Run.
func (c *Coordinator) ShareEvaluator(e *eval.Evaluator) { c.evaluator = e }

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/join", c.handleJoin)
	mux.HandleFunc("/v1/leave", c.handleLeave)
	mux.HandleFunc("/v1/poll", c.handlePoll)
	mux.HandleFunc("/v1/upload", c.handleUpload)
	return mux
}

// Run drives the configured number of rounds against whatever participants
// have joined, then evaluates, broadcasts shutdown, and returns the history.
// The history is bitwise-identical to fed.Trainer.Run on the same (split,
// config) when every user is hosted and no transport faults strike.
//
// The schedule is fed.RoundEngine.Run's over openRound, waitRound and
// publishRound: round r+1 is announced while round r still collects uploads,
// and round r's dispersals and round-end marker are pushed into the poll logs
// at close, so a participant's dependency-free clients train during round r's
// straggler window. A due evaluation overlaps its round's dispersal. The
// history does not depend on arrival order: uploads are absorbed in slot order.
func (c *Coordinator) Run(ctx context.Context) (*fed.History, error) {
	h, err := c.engine.Run(ctx, func() *eval.Evaluator { return eval.LazyEvaluator(&c.evaluator, c.split) },
		c.openRound, c.publishRound)
	if err != nil {
		return nil, err
	}
	c.broadcastShutdown()
	return h, nil
}

// broadcastShutdown marks the run finished and tells every session; a later
// join gets the shutdown in its first poll.
func (c *Coordinator) broadcastShutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down = true
	shutdown := comm.AppendFrame(nil, comm.MsgShutdown, nil)
	for _, s := range c.hosts {
		c.announceLocked(s, shutdown)
	}
}

// publishRound delivers a closed round: each dispersal is framed — before
// the lock is taken — and appended to its host session's event log (or
// retained for an absent host), every session gets the round-end marker that
// releases its dispersal-gated clients, and the round's state is dropped —
// every dispersal has by now reached a log or the retention store, and a late
// upload for the round gets the 409 "round closed" reply (an upload for a
// round never announced gets 400).
func (c *Coordinator) publishRound(round int, dispersals []fed.Dispersal) {
	frames := make([][]byte, len(dispersals))
	for i, d := range dispersals {
		frames[i] = comm.AppendDisperse(nil, comm.Disperse{User: d.ID, Preds: d.Preds})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, d := range dispersals {
		if h := c.hostLocked(d.ID); h >= 0 {
			c.announceLocked(c.hosts[h], frames[i])
		} else {
			c.stashPendingLocked(d.ID, frames[i])
		}
	}
	end := comm.AppendRound(nil, comm.MsgRoundEnd, round)
	for _, s := range c.hosts {
		c.announceLocked(s, end)
	}
	delete(c.rounds, round)
}

// stashPendingLocked retains user's undelivered dispersal event, newest
// superseding older, evicting the oldest-stashed user past the budget.
// c.mu held.
func (c *Coordinator) stashPendingLocked(user int, frame []byte) {
	if _, ok := c.pending[user]; ok {
		c.pending[user] = frame
		return
	}
	for len(c.pending) >= pendingDispersals {
		delete(c.pending, c.pendingQ[0])
		c.pendingQ = c.pendingQ[1:]
	}
	c.pending[user] = frame
	c.pendingQ = append(c.pendingQ, user)
}

// flushPendingLocked moves every retained dispersal the joining session hosts
// into its event log, and their users out of the eviction queue, so a host
// that leaves and rejoins cannot grow it. Delivery order across users is
// irrelevant (distinct clients); a client sees its newest available D̃ᵢ,
// exactly what late delivery means. c.mu held.
func (c *Coordinator) flushPendingLocked(s *session) {
	flushed := false
	for u, frame := range c.pending {
		if u < s.lo || u >= s.hi {
			continue
		}
		c.announceLocked(s, frame)
		delete(c.pending, u)
		flushed = true
	}
	if flushed {
		c.pendingQ = slices.DeleteFunc(c.pendingQ, func(u int) bool { return u >= s.lo && u < s.hi })
	}
}

// openRound binds the selected cohort to outcome slots, announces the round
// to every session with the cohort members it hosts, and returns its collect.
// One walk of the cohort fills both. Users no session hosts are resolved as
// dropped at once — a real deployment cannot train a user nobody runs.
func (c *Coordinator) openRound(round int, users []int) fed.Collect {
	rs := &roundState{
		awaiting: make(map[int]int, len(users)),
		outcomes: make([]fed.ClientOutcome, len(users)),
		done:     make(chan struct{}),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hosted := make([][]int, len(c.hosts)) // by position in c.hosts
	for slot, u := range users {
		rs.outcomes[slot] = fed.ClientOutcome{ID: u, Dropped: true}
		if i := c.hostLocked(u); i >= 0 {
			rs.awaiting[u] = slot
			hosted[i] = append(hosted[i], u)
		}
	}
	if len(rs.awaiting) == 0 {
		close(rs.done)
	}
	c.rounds[round] = rs
	c.opened = round + 1
	for i, s := range c.hosts {
		c.announceLocked(s, comm.AppendRoundStart(nil, comm.RoundStart{Round: round, Users: hosted[i]}))
	}
	return func(ctx context.Context) ([]fed.ClientOutcome, error) { return c.waitRound(ctx, rs) }
}

// waitRound returns the round's outcomes once its uploads resolve or the
// straggler deadline expires (pending clients become dropped), or ctx's error.
func (c *Coordinator) waitRound(ctx context.Context, rs *roundState) ([]fed.ClientOutcome, error) {
	var deadline <-chan time.Time
	if c.opts.Deadline > 0 {
		timer := time.NewTimer(c.opts.Deadline)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case <-rs.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-deadline:
		c.expireRound(rs)
	}
	return rs.outcomes, nil
}

// expireRound closes a round at its straggler deadline. Slots were
// pre-initialised as dropped, so stragglers need only be forgotten.
func (c *Coordinator) expireRound(rs *roundState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for u := range rs.awaiting {
		rs.resolve(u)
	}
}

// searchLocked returns the position in c.hosts of the first session whose
// range ends after user u. Live ranges are disjoint, so c.hosts, sorted by lo,
// is sorted by hi too, and that session is the only one that can host u or
// overlap a range starting at u. c.mu held.
func (c *Coordinator) searchLocked(u int) int {
	return sort.Search(len(c.hosts), func(i int) bool { return c.hosts[i].hi > u })
}

// hostLocked returns the position in c.hosts of the session hosting user u,
// or -1 when no live session hosts it. c.mu held.
func (c *Coordinator) hostLocked(u int) int {
	if i := c.searchLocked(u); i < len(c.hosts) && c.hosts[i].lo <= u {
		return i
	}
	return -1
}

// announceLocked appends a framed event to the session's log and wakes any
// parked poll. c.mu held.
func (c *Coordinator) announceLocked(s *session, frame []byte) {
	s.events = append(s.events, frame)
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
}

// announced reports whether openRound has announced round; rounds open in
// order from 0.
func (c *Coordinator) announced(round int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return round >= 0 && round < c.opened
}

// resolveUpload records one user's outcome, closing the round when it was
// the last pending upload. Returns false when the round no longer accepts
// uploads for this user (closed, or already resolved).
func (c *Coordinator) resolveUpload(round int, user int, o fed.ClientOutcome) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.rounds[round]
	if rs == nil {
		return false
	}
	slot, ok := rs.awaiting[user]
	if !ok {
		return false
	}
	rs.outcomes[slot] = o
	rs.resolve(user)
	return true
}

// checkPrediction refuses an uploaded or dispersed prediction that names
// another user, an item outside [0, numItems) or a score outside [0, 1] (NaN).
func checkPrediction(p comm.Prediction, user, numItems int) error {
	if p.User != user || p.Item < 0 || p.Item >= numItems || !(p.Score >= 0 && p.Score <= 1) {
		return fmt.Errorf("prediction %+v: want user %d, an item in [0, %d) and a score in [0, 1]", p, user, numItems)
	}
	return nil
}

// --- HTTP handlers -------------------------------------------------------

// countReader counts body bytes for the transport meter.
type countReader struct {
	r io.Reader
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// write sends built frames and meters them.
func (c *Coordinator) write(w io.Writer, frames []byte) {
	n, _ := w.Write(frames)
	c.wireOut.Add(int64(n))
}

// writeError refuses a request: the 4xx status, then a MsgError frame whose
// text is for people.
func (c *Coordinator) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.WriteHeader(status)
	c.write(w, comm.AppendFrame(nil, comm.MsgError, fmt.Appendf(nil, format, args...)))
}

// queryInt parses a required integer query parameter.
func queryInt(r *http.Request, key string) (int64, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return 0, fmt.Errorf("coord: missing %q parameter", key)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("coord: bad %q parameter: %v", key, err)
	}
	return n, nil
}

// sessionFromQuery resolves the token parameter to a live session.
func (c *Coordinator) sessionFromQuery(r *http.Request) (*session, error) {
	tok, err := queryInt(r, "token")
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sessions[uint64(tok)]
	if s == nil {
		return nil, fmt.Errorf("coord: unknown session token %d", tok)
	}
	return s, nil
}

// register admits a participant hosting users [lo, hi), refusing a range that
// overlaps a live session's.
func (c *Coordinator) register(lo, hi int) (*session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.searchLocked(lo)
	if i < len(c.hosts) && c.hosts[i].lo < hi {
		s := c.hosts[i]
		return nil, fmt.Errorf("coord: join range [%d, %d) overlaps session %d hosting [%d, %d)",
			lo, hi, s.token, s.lo, s.hi)
	}
	s := &session{token: c.newTokenLocked(), lo: lo, hi: hi}
	c.sessions[s.token] = s
	c.hosts = slices.Insert(c.hosts, i, s)
	// A joining host immediately receives any retained dispersals for its
	// range — users whose D̃ᵢ outlived their round while nobody hosted them.
	c.flushPendingLocked(s)
	if c.down {
		s.events = append(s.events, comm.AppendFrame(nil, comm.MsgShutdown, nil))
	}
	return s, nil
}

// newTokenLocked draws a session token no live session holds, uniformly
// from [1, 2⁶³) — queryInt parses a token as an int64 — with crypto/rand, so
// that a peer cannot guess another's token and upload or leave as it.
func (c *Coordinator) newTokenLocked() uint64 {
	var b [8]byte
	for {
		_, _ = crand.Read(b[:]) // never fails: it crashes the program instead
		if tok := binary.LittleEndian.Uint64(b[:]) >> 1; tok != 0 && c.sessions[tok] == nil {
			return tok
		}
	}
}

// unregister removes a session. A departed host's pending users resolve as
// dropped so open rounds can close; their slots were pre-initialised that way.
func (c *Coordinator) unregister(s *session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.searchLocked(s.lo); i < len(c.hosts) && c.hosts[i] == s {
		c.hosts = slices.Delete(c.hosts, i, i+1)
	}
	delete(c.sessions, s.token)
	for _, rs := range c.rounds {
		for u := range rs.awaiting {
			if s.lo <= u && u < s.hi {
				rs.resolve(u)
			}
		}
	}
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	cr := &countReader{r: r.Body}
	defer func() { c.wireIn.Add(cr.n) }()
	mt, payload, err := comm.ReadFrame(cr)
	if err != nil || mt != comm.MsgJoin {
		c.writeError(w, http.StatusBadRequest, "coord: join expects a %v frame: %v", comm.MsgJoin, err)
		return
	}
	j, err := comm.DecodeJoin(payload)
	if err != nil {
		c.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := io.ReadFull(cr, make([]byte, 1)); err != io.EOF {
		c.writeError(w, http.StatusBadRequest, "coord: join body continues past its frame")
		return
	}
	if j.UserLo < 0 || j.UserHi > c.split.NumUsers || j.UserLo >= j.UserHi {
		c.writeError(w, http.StatusBadRequest, "coord: join range [%d, %d) outside universe of %d users",
			j.UserLo, j.UserHi, c.split.NumUsers)
		return
	}
	s, err := c.register(j.UserLo, j.UserHi)
	if err != nil {
		c.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.write(w, comm.AppendJoinAck(nil, comm.JoinAck{
		Token:      s.token,
		NumUsers:   c.split.NumUsers,
		NumItems:   c.split.NumItems,
		DataSeed:   c.opts.DataSeed,
		TestFrac:   c.opts.TestFrac,
		Profile:    c.opts.Profile,
		ConfigJSON: c.configJSON,
	}))
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	s, err := c.sessionFromQuery(r)
	if err != nil {
		c.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.unregister(s)
	c.write(w, comm.AppendFrame(nil, comm.MsgAck, nil))
}

// eventsAfter acknowledges the session's events before the cursor — trimming
// them from the log — and returns a copy of the events from the cursor on,
// or, when the log ends at the cursor, the channel the next event closes. A
// cursor outside the unacknowledged log [base, base+len(events)] is an error.
// The poll handler reads the log only here; the deferred unlock releases c.mu
// on every path, a panic included.
func (c *Coordinator) eventsAfter(s *session, after int64) (events [][]byte, wake <-chan struct{}, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if after < s.base || after > s.base+int64(len(s.events)) {
		return nil, nil, fmt.Errorf("coord: poll cursor %d outside event log [%d, %d]", after, s.base, s.base+int64(len(s.events)))
	}
	s.events = slices.Delete(s.events, 0, int(after-s.base))
	s.base = after
	if len(s.events) > 0 {
		return slices.Clone(s.events), nil, nil
	}
	if s.wake == nil {
		s.wake = make(chan struct{})
	}
	return nil, s.wake, nil
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	s, err := c.sessionFromQuery(r)
	if err != nil {
		c.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	after, err := queryInt(r, "after")
	if err != nil {
		c.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deadline := time.NewTimer(pollWait)
	defer deadline.Stop()
	for {
		events, wake, err := c.eventsAfter(s, after)
		if err != nil {
			c.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(events) > 0 {
			for _, frame := range events {
				c.write(w, frame)
			}
			return
		}
		select {
		case <-wake:
		case <-deadline.C:
			// Heartbeat: the participant re-polls with the same cursor.
			c.write(w, comm.AppendFrame(nil, comm.MsgAck, nil))
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleUpload ingests a participant's uploads for one announced round: a
// body of per-user streams (readUploads), each resolving its user's slot the
// moment it ends. Go's HTTP/1.1 server may not let a handler read a body it
// has started answering, so the reply waits for the body's end: one frame per
// stream in body order, MsgAck(round) for an accepted user and MsgError for
// one whose round had closed, under 200 when every user was accepted and 409
// when any was late. A protocol error answers 400 with a MsgError frame.
func (c *Coordinator) handleUpload(w http.ResponseWriter, r *http.Request) {
	s, err := c.sessionFromQuery(r)
	if err != nil {
		c.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q, err := queryInt(r, "round")
	if err != nil {
		c.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	round := int(q)
	if !c.announced(round) {
		c.writeError(w, http.StatusBadRequest, "coord: round %d was never announced", round)
		return
	}

	var reply []byte
	late := false
	cr := &countReader{r: r.Body}
	// Buffered, one read of the body serves several small frames.
	perr := c.readUploads(bufio.NewReader(cr), round, s, func(o fed.ClientOutcome) {
		if c.resolveUpload(round, o.ID, o) {
			reply = comm.AppendRound(reply, comm.MsgAck, round)
			return
		}
		// The 409 is what a straggler's participant reads; the text is for people.
		late = true
		reply = comm.AppendFrame(reply, comm.MsgError, fmt.Appendf(nil, "coord: round %d closed for user %d", round, o.ID))
	})
	c.wireIn.Add(cr.n)
	if perr != nil {
		c.writeError(w, http.StatusBadRequest, "%v", perr)
		return
	}
	if late {
		w.WriteHeader(http.StatusConflict)
	}
	c.write(w, reply)
}

// uploadStream is one user's stream inside an upload body, from its begin
// frame to its end.
type uploadStream struct {
	begin comm.UploadBegin
	preds []comm.Prediction
	named *bitset.Set // the items preds name
}

// outcome is what the stream delivered: the received predictions, or a drop
// when none arrived.
func (st *uploadStream) outcome() fed.ClientOutcome {
	if len(st.preds) == 0 {
		return fed.ClientOutcome{ID: st.begin.User, Dropped: true}
	}
	return fed.ClientOutcome{
		ID:       st.begin.User,
		Upload:   st.preds,
		Loss:     st.begin.Loss,
		AttackF1: st.begin.AttackF1,
	}
}

// readUploads reads an upload body for round from session s: a sequence of
// per-user streams, each a MsgUploadBegin frame naming the round and a user s
// hosts that no earlier stream in the body named, then MsgUploadChunk frames,
// then MsgUploadEnd. resolve gets each stream's outcome the moment the stream
// ends, before the next frame is read, and classifies the client exactly as a
// lossy transport would:
//   - at its end frame, complete;
//   - at the next begin frame, or where the body ends or is cut, a short
//     write: the received prefix counts;
//   - dropped when no prediction arrived — a begin frame declaring none
//     followed by the end frame is how a participant reports a dropped
//     client.
//
// Anything else is a protocol error, returned at the frame that carries it
// rather than buffered: bad framing, any other frame outside a stream,
// a begin frame for another round or for a user s does not host or the body
// already named, one whose loss is negative or not finite, whose attack F1
// lies outside [0, 1] or whose count exceeds the catalogue, a stream that
// outgrows its count or ends short of it, and a prediction that names
// another user, an item outside [0, NumItems), an item the stream already
// named or a score outside [0, 1]. The offending stream's user, once its
// begin frame named one, resolves as dropped first, so the round never waits
// on a broken peer.
func (c *Coordinator) readUploads(body io.Reader, round int, s *session, resolve func(fed.ClientOutcome)) error {
	seen := bitset.New(s.hi - s.lo) // users an earlier stream named, offset by s.lo
	var st *uploadStream            // the open stream; nil between streams
	fail := func(err error) error {
		if st != nil {
			resolve(fed.ClientOutcome{ID: st.begin.User, Dropped: true})
		}
		return err
	}
	for {
		mt, payload, err := comm.ReadFrame(body)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// The body ends, or a transport cut severs it: the open stream
			// is a short write.
			if st != nil {
				resolve(st.outcome())
			}
			return nil
		}
		if err != nil {
			return fail(err)
		}
		if st == nil && mt != comm.MsgUploadBegin {
			return fmt.Errorf("coord: %v frame outside an upload stream", mt)
		}
		switch mt {
		case comm.MsgUploadBegin:
			if st != nil {
				resolve(st.outcome())
				st = nil
			}
			b, err := comm.DecodeUploadBegin(payload)
			if err != nil {
				return err
			}
			if b.User < s.lo || b.User >= s.hi {
				return fmt.Errorf("coord: session %d does not host user %d", s.token, b.User)
			}
			if seen.Contains(b.User - s.lo) {
				return fmt.Errorf("coord: upload body names user %d twice", b.User)
			}
			seen.Add(b.User - s.lo)
			st = &uploadStream{begin: b}
			if err := c.checkBegin(b, round); err != nil {
				return fail(err)
			}
			st.preds = make([]comm.Prediction, 0, b.Count)
			st.named = bitset.New(c.split.NumItems)
		case comm.MsgUploadChunk:
			if err := c.addChunk(st, payload); err != nil {
				return fail(err)
			}
		case comm.MsgUploadEnd:
			if len(st.preds) != st.begin.Count {
				return fail(fmt.Errorf("coord: user %d declared %d predictions, carried %d", st.begin.User, st.begin.Count, len(st.preds)))
			}
			resolve(st.outcome())
			st = nil
		default:
			return fail(fmt.Errorf("coord: unexpected %v frame inside an upload stream", mt))
		}
	}
}

// checkBegin refuses a begin frame for another round, one whose loss is
// negative or not finite or whose attack F1 lies outside [0, 1] (both reach
// RoundStats as sent; the negated comparisons reject NaN), and one declaring
// more predictions than the catalogue has items — a client uploads at most
// one per item, and a negative count sent as its uint32 two's complement
// lands far above that too.
func (c *Coordinator) checkBegin(b comm.UploadBegin, round int) error {
	if b.Round != round {
		return fmt.Errorf("coord: upload-begin for user %d names round %d, request says round %d", b.User, b.Round, round)
	}
	if !(b.Loss >= 0) || math.IsInf(b.Loss, 1) || !(b.AttackF1 >= 0 && b.AttackF1 <= 1) {
		return fmt.Errorf("coord: upload-begin reports loss %v and attack F1 %v: want a finite loss ≥ 0 and an F1 in [0, 1]",
			b.Loss, b.AttackF1)
	}
	if b.Count < 0 || b.Count > c.split.NumItems {
		return fmt.Errorf("coord: upload-begin declares %d predictions for a %d-item catalogue", b.Count, c.split.NumItems)
	}
	return nil
}

// addChunk decodes one chunk into the stream, refusing one that carries the
// stream past its declared count or a prediction checkPrediction refuses or
// naming an item the stream already named.
func (c *Coordinator) addChunk(st *uploadStream, payload []byte) error {
	chunk, err := comm.DecodePredictions(payload)
	if err != nil {
		return err
	}
	user := st.begin.User
	if len(st.preds)+len(chunk) > st.begin.Count {
		return fmt.Errorf("coord: user %d's upload stream carries more than the %d predictions it declared", user, st.begin.Count)
	}
	for _, p := range chunk {
		if err := checkPrediction(p, user, c.split.NumItems); err != nil {
			return fmt.Errorf("coord: user %d uploads %w", user, err)
		}
		if st.named.Contains(p.Item) {
			return fmt.Errorf("coord: user %d uploads item %d twice", user, p.Item)
		}
		st.named.Add(p.Item)
	}
	st.preds = append(st.preds, chunk...)
	return nil
}
