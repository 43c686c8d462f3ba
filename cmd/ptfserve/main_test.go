package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
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

// runMainInChild runs main with the arguments in PTFSERVE_TEST_ARGS when
// requireExit2 re-executed this test binary, and exits 0 if main returns:
// the arguments were not refused.
func runMainInChild() {
	if args := os.Getenv("PTFSERVE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"ptfserve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
}

// requireExit2 runs main with args in a child process — this test binary,
// re-executed to run only test, which calls runMainInChild first — and fails
// unless it exits with status 2.
func requireExit2(t *testing.T, test, args string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "PTFSERVE_TEST_ARGS="+args)
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("%s: %v, want exit status 2", args, err)
	}
}

// TestFracOutOfRangeExitsAtFlags: a -frac outside [0, 1], NaN included, is
// refused at flag parsing with exit code 2 — a coordinator built with it
// would wait forever for participants that all refuse its join-ack — and
// the range's ends are accepted.
func TestFracOutOfRangeExitsAtFlags(t *testing.T) {
	runMainInChild()
	for _, frac := range []string{"-0.1", "1.5", "NaN"} {
		requireExit2(t, "TestFracOutOfRangeExitsAtFlags", "-addr 127.0.0.1:0 -profile tiny -frac "+frac)
	}
	for _, frac := range []float64{0, 0.2, 1} {
		if err := checkFrac(frac); err != nil {
			t.Errorf("-frac %v refused: %v", frac, err)
		}
	}
}

// TestNegativeDeadlineExitsAtFlags: a negative -deadline is refused at flag
// parsing with exit code 2 — the coordinator would run it as no deadline,
// and one straggler would hold the run forever — and 0 (wait forever) and a
// positive deadline are accepted.
func TestNegativeDeadlineExitsAtFlags(t *testing.T) {
	runMainInChild()
	for _, d := range []string{"-1s", "-1ns"} {
		requireExit2(t, "TestNegativeDeadlineExitsAtFlags", "-addr 127.0.0.1:0 -profile tiny -deadline "+d)
	}
	for _, s := range []string{"0", "30s"} {
		d, err := time.ParseDuration(s)
		if err == nil {
			err = checkDeadline(d)
		}
		if err != nil {
			t.Errorf("-deadline %s refused: %v", s, err)
		}
	}
}
