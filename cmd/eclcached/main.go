// Command eclcached serves a shared ECL build cache over HTTP: an
// ordinary on-disk artifact store (the same format eclc writes
// locally) exported through the content-addressed protocol in
// internal/cache/remote, so a fleet of machines pointing eclc
// -remote-cache (or $ECL_REMOTE_CACHE) at it pays each compile once.
//
// Usage:
//
//	eclcached [-addr host:port] [-cache-dir dir]
//
// The backing store defaults to $ECL_CACHE_DIR, else the user cache
// dir; it is a normal store, so `eclc cache stats|gc|clear -cache-dir`
// manage it directly. GET /healthz answers liveness probes and GET
// /statsz reports the protocol traffic and the store's footprint as
// JSON.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/cache"
	"repro/internal/cache/remote"
	"repro/internal/httpserve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8420", "address to listen on")
	cacheDir := flag.String("cache-dir", "", "backing store directory (default $ECL_CACHE_DIR, else the user cache dir)")
	flag.Parse()

	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: eclcached [-addr host:port] [-cache-dir dir]")
		flag.Usage()
		os.Exit(2)
	}
	store, err := cache.Open(*cacheDir)
	if err != nil {
		fatal(err)
	}
	// Listen before announcing, so "-addr host:0" reports the port the
	// kernel actually picked (scripts and tests parse this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "eclcached: serving %s on %s\n", store.Dir(), ln.Addr())
	// Requests and responses are bounded by the client's blob transfer
	// budget, so a stalled transfer cannot hold a connection forever.
	if err := httpserve.New(remote.NewServer(store), remote.BlobTimeout).Serve(ln); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eclcached:", err)
	os.Exit(1)
}
