// Package httpjson is the one JSON response helper the repo's HTTP
// servers (eclcached's cache protocol, eclsimd's execution API) share:
// it sets the Content-Type header before the status is written and
// logs encode failures instead of silently dropping them — an encode
// error after the header has gone out cannot be reported to the
// client, so the server log is the only place it can surface.
package httpjson

import (
	"bufio"
	"encoding/json"
	"log"
	"net/http"
)

// Logf is the destination for encode-failure reports; tests may
// replace it. The default is the standard logger.
var Logf = log.Printf

// Write responds with v encoded as JSON under the given status. The
// Content-Type header is set before the status line is committed.
// Encode failures (marshal errors, a client that hung up mid-body) are
// logged, not returned: by then the status is already on the wire.
func Write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		Logf("httpjson: encode %T response: %v", v, err)
	}
}

// Stream writes an NDJSON response body: one JSON value per line
// (encoded by Encode, or pre-encoded and written by WriteLine),
// buffered, with the application/x-ndjson Content-Type set before the
// first byte is committed. Like Write, encode failures mid-stream
// cannot reach the client (the 200 status is already on the wire), so
// they are logged — tagged with the caller-supplied context — and the
// stream goes dead: every later Encode or WriteLine is a no-op
// reporting false.
type Stream struct {
	what string
	bw   *bufio.Writer
	enc  *json.Encoder
	err  error
}

// NewStream starts an NDJSON response on w; what names the response in
// encode-failure logs (e.g. "step abro-1").
func NewStream(w http.ResponseWriter, what string) *Stream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(w)
	return &Stream{what: what, bw: bw, enc: json.NewEncoder(bw)}
}

// Encode appends one value as a JSON line, reporting false (after
// logging) on the first failure and on every call after it.
func (s *Stream) Encode(v any) bool {
	if s.err != nil {
		return false
	}
	if err := s.enc.Encode(v); err != nil {
		s.err = err
		Logf("httpjson: %s: encode %T line: %v", s.what, v, err)
		return false
	}
	return true
}

// WriteLine appends one line the caller encoded itself: a JSON value
// and its newline, as a hand-written codec for a hot stream produces
// it. Failures are handled as in Encode.
func (s *Stream) WriteLine(line []byte) bool {
	if s.err != nil {
		return false
	}
	if _, err := s.bw.Write(line); err != nil {
		s.err = err
		Logf("httpjson: %s: write line: %v", s.what, err)
		return false
	}
	return true
}

// Flush drains the buffer to the client; a flush failure is logged and
// kills the stream like an encode failure. Call it once after the last
// Encode.
func (s *Stream) Flush() {
	if s.err != nil {
		return
	}
	if err := s.bw.Flush(); err != nil {
		s.err = err
		Logf("httpjson: %s: flush response: %v", s.what, err)
	}
}

// Err returns the first encode or flush failure, nil while the stream
// is healthy.
func (s *Stream) Err() error { return s.err }
