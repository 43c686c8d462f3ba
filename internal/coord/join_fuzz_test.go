package coord

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/models"
)

// FuzzJoin feeds raw request bodies through the coordinator's /v1/join
// handler while one session hosts users [10, 20). It must never panic, and
// must answer either 200 with exactly one MsgJoinAck frame — only for a body
// that is exactly one valid join frame, and for a new session hosting the
// requested range, leaving one more session — or 400 with exactly one
// MsgError frame, leaving the sessions as they were.
func FuzzJoin(f *testing.F) {
	join := func(lo, hi int) []byte { return comm.AppendJoin(nil, comm.Join{UserLo: lo, UserHi: hi}) }
	f.Add(join(0, 10))
	f.Add([]byte{})
	f.Add(join(30, 5))     // inverted range
	f.Add(join(0, 10)[:5]) // truncated header
	f.Add(join(15, 25))    // overlaps the live session
	f.Add(append(join(0, 10), "trailing garbage"...))
	c, err := New(testSplit(), testConfig(models.KindMF, 1), testOptions())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.register(10, 20); err != nil {
		f.Fatal(err)
	}
	h := c.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := c.Sessions()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/join", bytes.NewReader(body)))
		r := bytes.NewReader(rec.Body.Bytes())
		mt, payload, err := comm.ReadFrame(r)
		if err != nil {
			t.Fatalf("status %d: reply frame: %v", rec.Code, err)
		}
		if _, _, err := comm.ReadFrame(r); err != io.EOF {
			t.Fatalf("status %d: a second reply frame (%v), want exactly one", rec.Code, err)
		}
		switch rec.Code {
		case http.StatusOK:
			if mt != comm.MsgJoinAck {
				t.Fatalf("200 with a %v frame, want %v", mt, comm.MsgJoinAck)
			}
			ack, err := comm.DecodeJoinAck(payload)
			if err != nil {
				t.Fatal(err)
			}
			if ack.NumUsers != c.split.NumUsers || ack.NumItems != c.split.NumItems || ack.Profile != c.opts.Profile {
				t.Fatalf("join-ack describes %d users × %d items of %q, want the coordinator's world", ack.NumUsers, ack.NumItems, ack.Profile)
			}
			if n := c.Sessions(); n != before+1 {
				t.Fatalf("%d sessions after an accepted join, had %d", n, before)
			}
			s, err := c.sessionFromQuery(httptest.NewRequest(http.MethodGet, fmt.Sprintf("/?token=%d", ack.Token), nil))
			if err != nil {
				t.Fatal(err)
			}
			br := bytes.NewReader(body)
			_, jp, _ := comm.ReadFrame(br)
			if j, err := comm.DecodeJoin(jp); err != nil || s.lo != j.UserLo || s.hi != j.UserHi {
				t.Fatalf("accepted session hosts [%d, %d); the body asked for %+v (%v)", s.lo, s.hi, j, err)
			}
			if br.Len() != 0 {
				t.Fatalf("accepted a join body with %d bytes after its frame", br.Len())
			}
			c.unregister(s) // the next input meets the one live session again
		case http.StatusBadRequest:
			if mt != comm.MsgError || len(payload) == 0 {
				t.Fatalf("400 with a %v frame %q, want a MsgError with its reason", mt, payload)
			}
			if n := c.Sessions(); n != before {
				t.Fatalf("%d sessions after a refused join, had %d", n, before)
			}
		default:
			t.Fatalf("status %d, want 200 or 400", rec.Code)
		}
	})
}
