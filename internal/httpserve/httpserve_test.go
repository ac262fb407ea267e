package httpserve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestHalfRequestLineIsClosed: a client that sends half a request line
// and stalls is disconnected once the read-header timeout passes,
// instead of holding its connection for as long as it likes.
func TestHalfRequestLineIsClosed(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(http.NotFoundHandler(), 0)
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /heal"); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before it closes; either way the read
	// must end at the server's close, not at the test's deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	reply, err := io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v (read %q)", time.Since(start), reply)
	}
	t.Logf("closed after %v with %q (%v)", time.Since(start), reply, err)
}

// TestNewSetsTimeouts: every server gets the header and idle bounds;
// the body bound applies to reads and writes alike, when given.
func TestNewSetsTimeouts(t *testing.T) {
	for _, body := range []time.Duration{0, time.Minute} {
		srv := New(http.NotFoundHandler(), body)
		if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout ||
			srv.ReadTimeout != body || srv.WriteTimeout != body {
			t.Errorf("body %v: server timeouts %v/%v/%v/%v", body,
				srv.ReadHeaderTimeout, srv.IdleTimeout, srv.ReadTimeout, srv.WriteTimeout)
		}
	}
}
