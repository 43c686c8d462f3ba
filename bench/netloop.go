package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"ptffedrec/internal/fed"
)

// timingTransport times every request the participant makes, from outside
// the coord package: one span per request, from the moment it is handed to
// the transport until its response body is closed (uploads and dispersals
// stream, so headers alone would miss most of the exchange).
type timingTransport struct {
	base   *http.Transport
	rec    *recorder
	parent int
	errors atomic.Int64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "coord.other_req"
	if p, ok := strings.CutPrefix(req.URL.Path, "/v1/"); ok {
		name = "coord." + p + "_req"
	}
	id := t.rec.begin(name, t.parent, -1)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.errors.Add(1)
		t.rec.end(id)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		t.errors.Add(1)
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.rec.end(id) }}
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the pool.
func (t *timingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// timedBody ends its request's span when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// netTrace is one networked run observed from the participant's side of the
// socket and through the coordinator's own byte counters.
type netTrace struct {
	h               *fed.History
	wall            float64
	wireIn, wireOut int64
	httpErrors      int
}

// runNetworkedTraced sets a networked workload up with the timing transport
// in the participant's HTTP client and runs it once.
func runNetworkedTraced(w workload, seed uint64, rounds int, rec *recorder, parent int) (*netTrace, error) {
	run := rec.begin("coord.run", parent, -1)
	defer rec.end(run)
	tt := &timingTransport{base: loopbackTransport(), rec: rec, parent: run}
	rd, err := w.setup(seed, rounds, &http.Client{Transport: tt}, rec, run)
	if err != nil {
		return nil, err
	}
	defer rd.close()
	h, wall, _, err := rd.timed()
	if err != nil {
		return nil, err
	}
	in, out := rd.coord.WireBytes()
	return &netTrace{h: h, wall: wall, wireIn: in, wireOut: out, httpErrors: int(tt.errors.Load())}, nil
}
