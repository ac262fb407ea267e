package driver

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/paperex"
)

// buildWorkers counts the goroutines running Build's worker loop.
func buildWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("driver.(*Driver).Build.func"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestBuildPool builds 64 distinct requests with Workers: 2. Every
// result must come back in request order, every request must be built
// exactly once, no more than two goroutines may build at a time, and
// none may be left running once Build returns.
func TestBuildPool(t *testing.T) {
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Path: fmt.Sprintf("abro%02d.ecl", i), Source: paperex.ABRO}
	}
	d := &Driver{Workers: 2}

	done := make(chan struct{})
	maxWorkers := make(chan int)
	go func() {
		most := 0
		for {
			most = max(most, buildWorkers())
			select {
			case <-done:
				maxWorkers <- most
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	results, err := d.Build(buildCtx(), reqs)
	close(done)
	if most := <-maxWorkers; most > 2 {
		t.Errorf("%d goroutines built at once, want at most 2", most)
	}
	if err != nil {
		t.Fatal(err)
	}

	for i, r := range results {
		if r.Path != reqs[i].Path || r.Module != "abro" || r.Cached {
			t.Errorf("result %d: path %s module %s cached %t, want %s abro built", i, r.Path, r.Module, r.Cached, reqs[i].Path)
		}
	}
	if cs := d.CacheStats(); cs.Misses != 64 || cs.Hits != 0 {
		t.Errorf("%d builds and %d hits, want 64 builds", cs.Misses, cs.Hits)
	}

	// The workers are past wg.Done and exiting; wait for them.
	deadline := time.Now().Add(10 * time.Second)
	for buildWorkers() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d Build workers still running after Build returned", buildWorkers())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRootSingleFlight: 16 goroutines build the same request on a fresh
// driver at once. One walks; the others wait for it and are served by
// the root entry it stored, every result carrying the same Design. A
// request whose walk fails (here EFSM synthesis past MaxStates) is
// single-flighted too: the followers, and a later identical request,
// get the walk's diagnostics from memory. Run it under -race.
func TestRootSingleFlight(t *testing.T) {
	ok := Request{Path: "stack.ecl", Source: paperex.Stack, Module: "toplevel", Targets: []Target{TargetC}}
	failing := ok
	failing.Options.Compile.MaxStates = 1
	for _, req := range []Request{ok, failing} {
		d := New(0)
		results := make([]Result, 16)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				results[i] = d.BuildOne(req)
			}(i)
		}
		close(start)
		wg.Wait()
		results = append(results, d.BuildOne(req))
		if cs := d.CacheStats(); cs.Misses != 1 || cs.Hits != int64(len(results)-1) {
			t.Errorf("MaxStates %d: %d walks and %d root hits, want 1 and %d", req.Options.Compile.MaxStates, cs.Misses, cs.Hits, len(results)-1)
		}
		first := results[0]
		for i, r := range results {
			if r.Failed() != first.Failed() || r.Design != first.Design || r.Artifacts[TargetC] != first.Artifacts[TargetC] ||
				fmt.Sprint(r.Diags) != fmt.Sprint(first.Diags) {
				t.Errorf("MaxStates %d, result %d: err=%v design=%p, want err=%v design %p",
					req.Options.Compile.MaxStates, i, r.Err, r.Design, first.Err, first.Design)
			}
		}
		if req.Options.Compile.MaxStates == 0 && (first.Failed() || first.Design == nil) {
			t.Errorf("err=%v design=%p, want a design", first.Err, first.Design)
		}
		if req.Options.Compile.MaxStates != 0 && (!first.Failed() || first.Diags[0].Phase != PhaseCompile) {
			t.Errorf("diags %v, want a compile failure", first.Diags)
		}
	}
}
