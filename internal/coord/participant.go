package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/par"
)

// uploadChunkPreds is the number of predictions carried per MsgUploadChunk
// frame. A variable so tests can force multi-chunk uploads on tiny data.
var uploadChunkPreds = 512

// Participant runs the client side for a contiguous user range against a
// coordinator, speaking only the wire protocol: it reconstructs the shared
// world from the JoinAck (dataset profile + seed + config), runs each
// announced round through fed.ClientHost, streams uploads, and delivers the
// pushed dispersals. Under a FaultPlan the host's fault draws surface as
// real transport behaviour: a dropped client posts an empty body, a
// truncated one cuts its stream before the end frame.
type Participant struct {
	base   string
	hc     *http.Client
	token  uint64
	lo, hi int
	cfg    fed.Config
	host   *fed.ClientHost
}

// Join registers with the coordinator at base (e.g. "http://host:port") as
// the host of users [lo, hi) and rebuilds the shared world from the
// acknowledgement. hc may be nil for http.DefaultClient.
func Join(base string, lo, hi int, hc *http.Client) (*Participant, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	base = strings.TrimRight(base, "/")
	body := comm.AppendFrame(nil, comm.MsgJoin, comm.EncodeJoin(comm.Join{UserLo: lo, UserHi: hi}))
	resp, err := hc.Post(base+"/v1/join", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	mt, payload, err := comm.ReadFrame(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("coord: join reply: %w", err)
	}
	if mt == comm.MsgError {
		return nil, fmt.Errorf("coord: join refused: %s", payload)
	}
	if mt != comm.MsgJoinAck {
		return nil, fmt.Errorf("coord: join reply is %v, want %v", mt, comm.MsgJoinAck)
	}
	ack, err := comm.DecodeJoinAck(payload)
	if err != nil {
		return nil, err
	}
	p := &Participant{base: base, hc: hc, token: ack.Token, lo: lo, hi: hi}
	if err := p.rebuild(ack); err != nil {
		// Free the range for a participant that can host it.
		p.leave(context.Background())
		return nil, err
	}
	return p, nil
}

// rebuild reconstructs the shared world the join-ack describes: the run's
// config (refused unless it validates) and the client host over the split
// both sides derive from (profile, seed, frac) — no dataset bytes cross the
// wire. The fraction must lie in [0, 1], and the split must have the
// coordinator's shape, or the two would train different universes.
func (p *Participant) rebuild(ack comm.JoinAck) error {
	if err := json.Unmarshal(ack.ConfigJSON, &p.cfg); err != nil {
		return fmt.Errorf("coord: join-ack config: %w", err)
	}
	profile, err := data.ProfileByName(ack.Profile)
	if err != nil {
		return err
	}
	// Outside [0, 1] the split holds no item out, and evaluation would
	// report zeros without an error. The negation refuses NaN.
	if !(ack.TestFrac >= 0 && ack.TestFrac <= 1) {
		return fmt.Errorf("coord: join-ack TestFrac = %v, want a fraction in [0, 1]", ack.TestFrac)
	}
	sp := data.StreamSplit(profile, ack.DataSeed, ack.TestFrac)
	if sp.NumUsers != ack.NumUsers || sp.NumItems != ack.NumItems {
		return fmt.Errorf("coord: profile %q rebuilds %d users × %d items, the coordinator's split has %d users × %d items",
			ack.Profile, sp.NumUsers, sp.NumItems, ack.NumUsers, ack.NumItems)
	}
	p.host, err = fed.NewClientHost(sp, p.cfg)
	return err
}

// Token returns the session token the coordinator assigned.
func (p *Participant) Token() uint64 { return p.token }

// Run processes announcements until shutdown. The coordinator pushes
// dispersals and round-end markers into the poll stream and announces round
// r+1 during round r's collection, ordering each session's log as RS(r),
// RS(r+1), D(r)…, RE(r), RS(r+2), … Run hands each announcement and each
// round end to a fed.Waves, which trains the hosted users of a round who sat
// out the previous one at once (overlapping the coordinator's close of that
// round) and the rest once the previous round's dispersals and end marker
// have arrived. An announcement while a gated wave still waits — the
// previous round's end marker missing — or one checkRoundUsers refuses is an
// error. The event loop only decodes frames and records the waves' errors.
func (p *Participant) Run(ctx context.Context) error {
	after := 0
	seen := map[int]bool{} // checkRoundUsers' scratch
	waves := fed.NewWaves()
	defer waves.Wait()
	var waveErr atomic.Pointer[error] // the first error a wave returned
	firstErr := func() error {
		if err := waveErr.Load(); err != nil {
			return *err
		}
		return nil
	}

	for {
		if err := firstErr(); err != nil {
			return err
		}
		frames, err := p.poll(ctx, after)
		if err != nil {
			return err
		}
		for _, f := range frames {
			switch f.mt {
			case comm.MsgRoundStart:
				rs, err := comm.DecodeRoundStart(f.payload)
				if err != nil {
					return err
				}
				if err := p.checkRoundUsers(rs, seen); err != nil {
					return err
				}
				if _, err := waves.Announce(rs.Round, rs.Users, func(slots []int) {
					if err := p.runUsers(ctx, rs.Round, rs.Users, slots); err != nil {
						waveErr.CompareAndSwap(nil, &err)
					}
				}); err != nil {
					return err
				}
				after++
			case comm.MsgDisperse:
				// Pushed deliveries land on the event loop; the target's own
				// training for the dispersal's round has finished (its upload
				// produced the dispersal) and a wave training now holds only
				// users that wait on no dispersal still to come.
				if err := p.deliver(f.payload); err != nil {
					return err
				}
				after++
			case comm.MsgRoundEnd:
				r, err := comm.DecodeRound(f.payload)
				if err != nil {
					return err
				}
				waves.End(r)
				after++
			case comm.MsgShutdown:
				waves.Wait()
				p.leave(ctx)
				return firstErr()
			case comm.MsgAck:
				// Heartbeat: re-poll with the same cursor.
			case comm.MsgError:
				return fmt.Errorf("coord: poll: %s", f.payload)
			default:
				return fmt.Errorf("coord: unexpected %v frame from poll", f.mt)
			}
		}
	}
}

// checkRoundUsers refuses an announced user outside the hosted range — past
// the catalogue it would index past the host's clients, inside it train
// another participant's user — or named twice, which would train one client
// on two goroutines at once. seen is scratch.
func (p *Participant) checkRoundUsers(rs comm.RoundStart, seen map[int]bool) error {
	clear(seen)
	for _, u := range rs.Users {
		if u < p.lo || u >= p.hi {
			return fmt.Errorf("coord: round %d announces user %d outside hosted range [%d, %d)", rs.Round, u, p.lo, p.hi)
		}
		if seen[u] {
			return fmt.Errorf("coord: round %d announces user %d twice", rs.Round, u)
		}
		seen[u] = true
	}
	return nil
}

// deliver decodes one pushed dispersal and hands it to the hosted client,
// which would train on it: a foreign user or a prediction checkPrediction
// refuses is a protocol error.
func (p *Participant) deliver(payload []byte) error {
	d, err := comm.DecodeDisperse(payload)
	if err != nil {
		return err
	}
	if d.User < p.lo || d.User >= p.hi {
		return fmt.Errorf("coord: dispersal for user %d outside hosted range [%d, %d)", d.User, p.lo, p.hi)
	}
	preds, err := comm.DecodePredictions(d.Payload)
	if err != nil {
		return err
	}
	for _, pr := range preds {
		if err := checkPrediction(pr, d.User, p.host.Split().NumItems); err != nil {
			return fmt.Errorf("coord: dispersal for user %d: %w", d.User, err)
		}
	}
	p.host.Deliver(d.User, preds)
	return nil
}

type frame struct {
	mt      comm.MsgType
	payload []byte
}

// poll long-polls the announcement channel past the cursor.
func (p *Participant) poll(ctx context.Context, after int) ([]frame, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/poll?token=%d&after=%d", p.base, p.token, after), nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var frames []frame
	for {
		mt, payload, err := comm.ReadFrame(resp.Body)
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return nil, fmt.Errorf("coord: poll stream: %w", err)
		}
		frames = append(frames, frame{mt: mt, payload: payload})
	}
}

// runUsers trains and uploads one wave of a round's hosted users — the given
// slots of users — on the configured worker pool. Each worker touches only
// its own user's client, exactly like the in-process trainer's round loop.
func (p *Participant) runUsers(ctx context.Context, round int, users, slots []int) error {
	errs := make([]error, len(slots))
	par.For(len(slots), par.Workers(p.cfg.Workers), func(i int) {
		res := p.host.RunClientRound(round, users[slots[i]])
		errs[i] = p.upload(ctx, round, res)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// upload posts one user's round result as a frame stream. A host-level
// dropout becomes an empty body (connection drop); a truncation sends the
// transmitted prefix and omits the end frame (short write).
func (p *Participant) upload(ctx context.Context, round int, res fed.ClientRoundResult) error {
	// The body builds into a pooled frame buffer: a participant's steady
	// state is one of these per client per round, and the pool keeps that
	// allocation-free once warm. The buffer is returned only after the
	// response is fully handled — the HTTP client may re-read the request
	// body for a retry.
	body := comm.GetFrameBuffer()
	defer comm.PutFrameBuffer(body)
	if !res.Dropped {
		body.Append(comm.MsgUploadBegin, comm.EncodeUploadBegin(comm.UploadBegin{
			Round:    round,
			User:     res.ID,
			Count:    len(res.Preds),
			Loss:     res.Loss,
			AttackF1: res.AttackF1,
		}))
		payload := res.WirePayload()
		chunkBytes := uploadChunkPreds * comm.PredictionWireSize
		for off := 0; off < len(payload); off += chunkBytes {
			end := off + chunkBytes
			if end > len(payload) {
				end = len(payload)
			}
			body.Append(comm.MsgUploadChunk, payload[off:end])
		}
		if res.SendPreds == len(res.Preds) {
			body.Append(comm.MsgUploadEnd, nil)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/upload?token=%d&round=%d&user=%d", p.base, p.token, round, res.ID),
		bytes.NewReader(body.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	mt, payload, err := comm.ReadFrame(resp.Body)
	if err != nil {
		return fmt.Errorf("coord: upload reply: %w", err)
	}
	if resp.StatusCode == http.StatusConflict {
		// Straggler: the round's deadline passed while this upload was in
		// flight. The coordinator counted the client as dropped; the run
		// continues. Any refusal without this status is fatal, whatever it says.
		return nil
	}
	if mt == comm.MsgError {
		return fmt.Errorf("coord: upload refused: %s", payload)
	}
	if mt != comm.MsgAck {
		return fmt.Errorf("coord: upload reply is %v, want %v", mt, comm.MsgAck)
	}
	return nil
}

// leave deregisters the session; best-effort, errors are ignored (the
// coordinator also tolerates vanished sessions).
func (p *Participant) leave(ctx context.Context) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/leave?token=%d", p.base, p.token), nil)
	if err != nil {
		return
	}
	if resp, err := p.hc.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
