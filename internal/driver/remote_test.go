package driver

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/cache/remote"
	"repro/internal/paperex"
)

// startRemote spins up an in-process eclcached: the protocol server
// over its own on-disk store.
func startRemote(t *testing.T) string {
	t.Helper()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(remote.NewServer(store))
	t.Cleanup(srv.Close)
	return srv.URL
}

// remoteDriver builds a three-tier driver: fresh memory, an empty
// local disk store, and a client on the shared server.
func remoteDriver(t *testing.T, url string) *Driver {
	t.Helper()
	disk, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := remote.Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	return &Driver{Disk: disk, Remote: rc}
}

// exampleRequests expands every module of every shipped example, the
// same corpus the CI dogfood step compiles.
func exampleRequests(t *testing.T) []Request {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.ecl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example corpus: %v", err)
	}
	var reqs []Request
	for _, p := range paths {
		seed := Request{Path: p, Targets: []Target{TargetEsterel, TargetC, TargetGlue, TargetStats}}
		expanded, err := ExpandModules(seed)
		if err != nil {
			t.Fatalf("expand %s: %v", p, err)
		}
		reqs = append(reqs, expanded...)
	}
	return reqs
}

// TestRemoteCacheServesSecondMachine is the PR's acceptance criterion:
// machine A compiles the examples once and uploads to the shared tier;
// machine B (empty memory, empty local disk) must then be served >=90%
// of its requests from the remote tier without compiling anything, and
// get byte-identical artifacts.
func TestRemoteCacheServesSecondMachine(t *testing.T) {
	url := startRemote(t)
	reqs := exampleRequests(t)

	// Machine A: cold fleet, everything compiles and uploads.
	dA := remoteDriver(t, url)
	resA, err := dA.Build(context.Background(), reqs)
	if err != nil {
		t.Fatalf("machine A build: %v", err)
	}
	dA.Remote.Flush() // uploads are async; B must see a populated server
	if up := dA.Remote.Stats().Uploads; up == 0 {
		t.Fatal("machine A uploaded nothing to the shared tier")
	}

	// Machine B: a different machine — nothing local, warm remote.
	dB := remoteDriver(t, url)
	resB, err := dB.Build(context.Background(), reqs)
	if err != nil {
		t.Fatalf("machine B build: %v", err)
	}

	cs := dB.CacheStats()
	if cs.Misses != 0 {
		t.Fatalf("machine B compiled %d designs; a populated remote must serve them all", cs.Misses)
	}
	probes := cs.RemoteHits + cs.RemoteMisses
	if probes == 0 {
		t.Fatal("machine B never probed the remote tier")
	}
	if rate := float64(cs.RemoteHits) / float64(probes); rate < 0.9 {
		t.Fatalf("remote hit rate %.0f%% (%d/%d), want >= 90%%", 100*rate, cs.RemoteHits, probes)
	}

	for i := range resB {
		if !resB[i].Cached {
			t.Fatalf("request %d (%s:%s) was not served from cache", i, resB[i].Path, resB[i].Module)
		}
		if !reflect.DeepEqual(resA[i].Artifacts, resB[i].Artifacts) {
			t.Fatalf("request %d (%s:%s): remote-served artifacts differ from the cold build",
				i, resB[i].Path, resB[i].Module)
		}
	}

	// Read-through: B's local disk tier was populated, so a third
	// driver on machine B serves from disk without touching the
	// network.
	dB2 := &Driver{Disk: dB.Disk}
	resB2, err := dB2.Build(context.Background(), reqs)
	if err != nil {
		t.Fatalf("machine B rebuild: %v", err)
	}
	for i := range resB2 {
		if !resB2[i].DiskCached {
			t.Fatalf("request %d (%s:%s) not served from the read-through local store",
				i, resB2[i].Path, resB2[i].Module)
		}
	}
}

// TestRemoteCacheMissCompilesAndUploads: an empty server costs nothing
// but misses; the build compiles locally and the fresh artifacts land
// on the server for the next machine.
func TestRemoteCacheMissCompilesAndUploads(t *testing.T) {
	url := startRemote(t)
	d := remoteDriver(t, url)
	req := Request{
		Path: "stack.ecl", Source: paperex.Stack, Module: "toplevel",
		Targets: []Target{TargetEsterel, TargetC},
	}
	res := d.BuildOne(req)
	if res.Failed() || res.Cached {
		t.Fatalf("cold build: err=%v cached=%t", res.Err, res.Cached)
	}
	cs := d.CacheStats()
	if cs.RemoteMisses == 0 {
		t.Fatal("cold build never probed the remote tier")
	}
	d.Remote.Flush()
	if d.Remote.Stats().Uploads == 0 {
		t.Fatal("cold build did not upload its artifacts")
	}

	// A second machine is now served remotely.
	d2 := remoteDriver(t, url)
	res2 := d2.BuildOne(req)
	if res2.Failed() || !res2.RemoteCached {
		t.Fatalf("warm build: err=%v remoteCached=%t", res2.Err, res2.RemoteCached)
	}
	if res2.Artifacts[TargetC] != res.Artifacts[TargetC] {
		t.Fatal("remote-served artifact differs from the compiled one")
	}
}

// TestRemoteCacheDeadServerDegrades: a driver pointed at a dead server
// still builds everything — the remote tier can never fail a build.
func TestRemoteCacheDeadServerDegrades(t *testing.T) {
	srv := httptest.NewServer(nil)
	url := srv.URL
	srv.Close()
	d := remoteDriver(t, url)
	res := d.BuildOne(Request{
		Path: "abro.ecl", Source: paperex.ABRO, Module: "abro",
		Targets: []Target{TargetEsterel},
	})
	if res.Failed() {
		t.Fatalf("build failed against a dead remote: %v", res.Err)
	}
	if res.Artifacts[TargetEsterel] == "" {
		t.Fatal("no artifact produced")
	}
}

// TestRemoteCacheRespectsNoCache: NoCache must keep the driver off the
// network entirely.
func TestRemoteCacheRespectsNoCache(t *testing.T) {
	url := startRemote(t)
	d := remoteDriver(t, url)
	d.NoCache = true
	res := d.BuildOne(Request{
		Path: "abro.ecl", Source: paperex.ABRO, Module: "abro",
		Targets: []Target{TargetEsterel},
	})
	if res.Failed() || res.Cached {
		t.Fatalf("NoCache build: err=%v cached=%t", res.Err, res.Cached)
	}
	d.Remote.Flush()
	st := d.Remote.Stats()
	if st.Hits+st.Misses+st.Uploads != 0 {
		t.Fatalf("NoCache build touched the remote tier: %+v", st)
	}
}

// TestRemoteRootWriteThroughKeepsModule: a root remote hit on an empty
// local store lands on disk with its module, so the next process on
// the machine is a disk hit that resolves the same module — for a
// request by module name and one under the last-module convention.
func TestRemoteRootWriteThroughKeepsModule(t *testing.T) {
	url := startRemote(t)
	for _, module := range []string{"recordctl", ""} {
		req := Request{Path: "buffer.ecl", Source: paperex.Buffer, Module: module, Targets: []Target{TargetC}}
		dA := remoteDriver(t, url)
		cold := dA.BuildOne(req)
		if cold.Failed() {
			t.Fatal(cold.Err)
		}
		dA.Remote.Flush()

		dB := remoteDriver(t, url)
		viaRemote := dB.BuildOne(req)
		if !viaRemote.RemoteCached || viaRemote.Module != cold.Module {
			t.Fatalf("module %q: remoteCached=%t module=%q, want a remote hit for %q", module, viaRemote.RemoteCached, viaRemote.Module, cold.Module)
		}
		viaDisk := (&Driver{Disk: dB.Disk}).BuildOne(req)
		if !viaDisk.DiskCached || viaDisk.Module != cold.Module || viaDisk.Artifacts[TargetC] != cold.Artifacts[TargetC] {
			t.Fatalf("module %q: diskCached=%t module=%q, want a disk hit for %q with the cold artifact",
				module, viaDisk.DiskCached, viaDisk.Module, cold.Module)
		}
	}
	if module := (&Driver{}).BuildOne(Request{Path: "buffer.ecl", Source: paperex.Buffer}).Module; module != "bufferctl" {
		t.Fatalf("last module of buffer.ecl = %q, want bufferctl", module)
	}
}
