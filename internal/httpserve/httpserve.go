// Package httpserve builds the http.Server the repo's daemons
// (eclcached, eclsimd) serve through, so that neither holds a
// connection open forever for a client that never finishes its
// request headers or idles between requests.
package httpserve

import (
	"net/http"
	"time"
)

// readHeaderTimeout bounds how long a client may take to send a
// request line and headers, and idleTimeout how long a kept-alive
// connection may wait for its next request. They are variables so
// this package's tests can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// New returns a server for h with the shared header and idle timeouts.
// A body > 0 also bounds reading each whole request and writing its
// response, for a server whose transfers have a known worst case; 0
// leaves both unbounded.
func New(h http.Handler, body time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		ReadTimeout:       body,
		WriteTimeout:      body,
	}
}
