package driver

import (
	"bytes"
	"fmt"
	"runtime"
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
