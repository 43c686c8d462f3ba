package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerCutsStalledRequestHeader: a peer that opens a connection and never
// finishes its request header must be disconnected by the server, not held
// for the life of the run.
func TestServerCutsStalledRequestHeader(t *testing.T) {
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("newHTTPServer sets ReadHeaderTimeout=%v IdleTimeout=%v, want both positive",
			srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // the production value, shrunk
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and no terminating blank line: the header never ends.
	if _, err := io.WriteString(conn, "GET /v1/poll HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server answers a timed-out header by closing the connection (after
	// an optional error response); without the timeout this read blocks until
	// the test's own deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept a stalled connection open: %v", err)
	}
}
