package httpjson

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestStream(t *testing.T) {
	rec := httptest.NewRecorder()
	st := NewStream(rec, "test stream")
	for i := 0; i < 2; i++ {
		if !st.Encode(map[string]int{"n": i}) {
			t.Fatalf("Encode %d failed: %v", i, st.Err())
		}
	}
	if !st.WriteLine([]byte("{\"n\":2}\n")) {
		t.Fatalf("WriteLine failed: %v", st.Err())
	}
	st.Flush()
	if err := st.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %q", len(lines), rec.Body.String())
	}
	for i, line := range lines {
		want := fmt.Sprintf(`{"n":%d}`, i)
		if line != want {
			t.Errorf("line %d = %q, want %q", i, line, want)
		}
	}
}

// brokenWriter fails every body write, like a client that hung up.
type brokenWriter struct{ h http.Header }

func (w *brokenWriter) Header() http.Header        { return w.h }
func (w *brokenWriter) Write([]byte) (int, error)  { return 0, errors.New("peer gone") }
func (w *brokenWriter) WriteHeader(statusCode int) {}

func TestStreamDeadAfterFailure(t *testing.T) {
	var logged []string
	defer func(orig func(string, ...any)) { Logf = orig }(Logf)
	Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}

	st := NewStream(&brokenWriter{h: make(http.Header)}, "dead stream")
	// The bufio layer absorbs small writes, so force the failure out
	// with Flush, then check the stream stays dead.
	st.Encode("hello")
	st.Flush()
	if st.Err() == nil {
		t.Fatal("flush against a broken writer reported no error")
	}
	if st.Encode("more") {
		t.Fatal("Encode succeeded on a dead stream")
	}
	if st.WriteLine([]byte("\"more\"\n")) {
		t.Fatal("WriteLine succeeded on a dead stream")
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "dead stream") {
		t.Fatalf("logged = %q, want one message naming the stream", logged)
	}
}
