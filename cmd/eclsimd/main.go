// Command eclsimd serves multi-tenant ECL execution over HTTP: a fleet
// of clients opens machines (compiled on demand through the tiered
// build cache), steps them in batches, forks and resets them, all
// against one long-lived exec.Session. The wire format for stepping is
// the canonical JSONL trace encoding, so a transcribed daemon
// conversation replays directly through eclsim -replay.
//
// Usage:
//
//	eclsimd [-addr host:port] [-cache-dir dir] [-remote-cache URL]
//	        [-backend name] [-max-sessions n] [-idle-ttl d] [-jobs n]
//
// Sessions idle past -idle-ttl (or squeezed out by -max-sessions) are
// evicted into the build cache's content-addressed store as snapshot
// blobs and revived transparently on their next touch. GET /healthz
// answers liveness probes; GET /statsz reports traffic counters as
// JSON. eclsim -connect http://host:port drives a running daemon.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/remote"
	"repro/internal/driver"
	"repro/internal/exec"
	"repro/internal/httpserve"
	"repro/internal/simd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8421", "address to listen on")
	cacheDir := flag.String("cache-dir", "", "build cache directory (default $ECL_CACHE_DIR, else the user cache dir)")
	remoteCache := flag.String("remote-cache", os.Getenv("ECL_REMOTE_CACHE"), "shared remote cache URL (default $ECL_REMOTE_CACHE)")
	backend := flag.String("backend", "efsm", "default execution backend: "+strings.Join(exec.Backends(), ", "))
	maxSessions := flag.Int("max-sessions", simd.DefaultMaxSessions, "resident machine bound (LRU-evicts past it)")
	idleTTL := flag.Duration("idle-ttl", 10*time.Minute, "evict sessions idle this long (0 disables)")
	jobs := flag.Int("jobs", 0, "compile workers (0 = GOMAXPROCS)")
	flag.Parse()

	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: eclsimd [flags]")
		flag.Usage()
		os.Exit(2)
	}
	d := driver.New(*jobs)
	store, err := cache.Open(*cacheDir)
	if err != nil {
		// No writable store: compiles stay memory-cached and eviction is
		// disabled, but the daemon still serves.
		fmt.Fprintf(os.Stderr, "eclsimd: disk cache disabled: %v\n", err)
		store = nil
	} else {
		d.Disk = store
	}
	if *remoteCache != "" {
		rc, err := remote.Dial(*remoteCache)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eclsimd: remote cache disabled: %v\n", err)
		} else {
			d.Remote = rc
		}
	}
	daemon, err := simd.New(simd.Config{
		Driver:      d,
		Store:       store,
		Backend:     *backend,
		MaxSessions: *maxSessions,
		IdleTTL:     *idleTTL,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	defer daemon.Close()
	// Listen before announcing, so "-addr host:0" reports the port the
	// kernel actually picked (scripts and tests parse this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "eclsimd: serving on %s\n", ln.Addr())
	if err := httpserve.New(daemon, 0).Serve(ln); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eclsimd:", err)
	os.Exit(1)
}
