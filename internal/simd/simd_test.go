package simd

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/driver"
	"repro/internal/exec"
	"repro/internal/paperex"
)

// testDaemon assembles a daemon over a temp store and serves it from
// an httptest server, returning a dialed client and the daemon itself.
func testDaemon(t *testing.T, mutate func(*Config)) (*Client, *Daemon) {
	t.Helper()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d := driver.New(2)
	d.Disk = store
	cfg := Config{Driver: d, Store: store, Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
	}
	daemon, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(daemon.Close)
	srv := httptest.NewServer(daemon)
	t.Cleanup(srv.Close)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, daemon
}

func TestDaemonOpenStepClose(t *testing.T) {
	c, _ := testDaemon(t, nil)
	info, err := c.Open(OpenRequest{Path: "abro.ecl", Source: paperex.ABRO})
	if err != nil {
		t.Fatal(err)
	}
	if info.Module != "abro" || info.Backend != "efsm" || info.Instant != 0 {
		t.Fatalf("open info = %+v", info)
	}
	if len(info.Inputs) != 3 || !info.Inputs[0].Pure {
		t.Fatalf("inputs = %+v", info.Inputs)
	}

	events, err := c.StepEvents(info.ID, []map[string]string{
		nil, {"A": ""}, {"B": ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	if _, ok := events[2].Outputs["O"]; !ok {
		t.Fatalf("AB did not emit O: %v", events[2].Outputs)
	}
	if events[2].Instant != 2 {
		t.Fatalf("instants numbered %d", events[2].Instant)
	}

	ids, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != info.ID {
		t.Fatalf("list = %v", ids)
	}
	if err := c.Reset(info.ID); err != nil {
		t.Fatal(err)
	}
	after, err := c.Info(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Instant != 0 {
		t.Fatalf("reset left instant %d", after.Instant)
	}
	if err := c.Close(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info(info.ID); err == nil || !strings.Contains(err.Error(), "no machine") {
		t.Fatalf("closed machine still visible: %v", err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Opens != 1 || st.Closes != 1 || st.Steps != 3 || st.Batches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !c.Healthy() {
		t.Fatal("daemon not healthy")
	}
}

// TestDaemonErrors maps protocol failures onto statuses: unknown
// machines are 404, bad designs and bad batches 400, duplicate ids 409.
func TestDaemonErrors(t *testing.T) {
	c, _ := testDaemon(t, nil)
	if _, err := c.Info("nope"); err == nil || !strings.Contains(err.Error(), "no machine") {
		t.Fatalf("info on unknown machine: %v", err)
	}
	if _, err := c.StepEvents("nope", nil); err == nil || !strings.Contains(err.Error(), "no machine") {
		t.Fatalf("step on unknown machine: %v", err)
	}
	if _, err := c.Open(OpenRequest{Source: "module broken ( {"}); err == nil {
		t.Fatal("bad source compiled")
	}
	if _, err := c.Open(OpenRequest{}); err == nil {
		t.Fatal("empty open succeeded")
	}
	info, err := c.Open(OpenRequest{ID: "dup", Source: paperex.ABRO})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(OpenRequest{ID: "dup", Source: paperex.ABRO}); err == nil {
		t.Fatal("duplicate id succeeded")
	}
	// A bad input mid-batch keeps the events that executed and reports
	// the error as the final JSONL line.
	events, err := c.StepEvents(info.ID, []map[string]string{
		{"A": ""}, {"bogus": ""},
	})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bad batch error: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("partial batch kept %d events", len(events))
	}
}

// TestDaemonSeveralBadInputsOneError sends an instant naming several
// bad inputs 200 times, on the daemon's default slot-stepping backend
// and on interp. Each must answer with one error text every time: the
// first bad name in sorted order.
func TestDaemonSeveralBadInputsOneError(t *testing.T) {
	c, _ := testDaemon(t, nil)
	bad := []map[string]string{{"bogus": "", "zzz": "", "A": "0x01"}}
	for _, backend := range []string{"", "interp"} {
		info, err := c.Open(OpenRequest{Path: "abro.ecl", Source: paperex.ABRO, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for range 200 {
			_, err := c.StepEvents(info.ID, bad)
			seen[fmt.Sprint(err)]++
		}
		want := fmt.Sprintf(`simd: step %s: machine %q instant 0: input A: value "0x01" for a pure signal`, info.ID, info.ID)
		if len(seen) != 1 || seen[want] != 200 {
			t.Errorf("%s: error texts over 200 steps: %v", info.Backend, seen)
		}
	}
}

// TestDaemonConversationIsReplayableTrace is the acceptance check: the
// events a daemon conversation produces, written verbatim as a JSONL
// trace, replay clean through exec.Replay on the oracle interpreter.
func TestDaemonConversationIsReplayableTrace(t *testing.T) {
	c, _ := testDaemon(t, nil)
	info, err := c.Open(OpenRequest{Path: "stack.ecl", Source: paperex.Stack, Module: "toplevel"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var inputs []map[string]string
	for i := 0; i < 100; i++ {
		in := map[string]string{}
		if rng.Intn(4) != 0 {
			in["in_byte"] = EncodeIntValue(1, int64(rng.Intn(256)))
		}
		if rng.Intn(20) == 0 {
			in["reset"] = ""
		}
		inputs = append(inputs, in)
	}
	events, err := c.StepAll(info.ID, inputs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 100 {
		t.Fatalf("%d events", len(events))
	}

	// Transcribe the conversation as a trace file and replay it on a
	// locally built interp machine.
	trace := &exec.Trace{Version: exec.TraceVersion, Module: info.Module, Backend: info.Backend, Events: events}
	var buf bytes.Buffer
	if err := trace.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	recorded, err := exec.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res := driver.New(1).BuildOne(driver.Request{Path: "stack.ecl", Source: paperex.Stack, Module: "toplevel"})
	if res.Failed() {
		t.Fatal(res.Err)
	}
	m, err := exec.Open("interp", res.Design)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Replay(m, recorded)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Diff(recorded, got); err != nil {
		t.Fatalf("daemon conversation does not replay on interp: %v", err)
	}
}

// TestDaemonEvictRevive parks an idle session as a snapshot blob and
// checks the revived continuation is byte-identical with a twin that
// never left memory — including a forked child evicted while its
// parent keeps getting touched.
func TestDaemonEvictRevive(t *testing.T) {
	c, daemon := testDaemon(t, func(cfg *Config) {
		cfg.IdleTTL = 30 * time.Minute // TTL loop effectively off; evict explicitly
	})
	open := func(id string) MachineInfo {
		info, err := c.Open(OpenRequest{ID: id, Path: "stack.ecl", Source: paperex.Stack, Module: "toplevel"})
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	victim := open("victim")
	twin := open("twin")
	rng := rand.New(rand.NewSource(9))
	instants := func(n int) []map[string]string {
		out := make([]map[string]string, n)
		for i := range out {
			in := map[string]string{}
			if rng.Intn(3) != 0 {
				in["in_byte"] = EncodeIntValue(1, int64(rng.Intn(256)))
			}
			out[i] = in
		}
		return out
	}
	warm := instants(13)
	if _, err := c.StepEvents(victim.ID, warm); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StepEvents(twin.ID, warm); err != nil {
		t.Fatal(err)
	}
	// Fork a child off the victim, then evict both while the parent's
	// twin keeps stepping.
	child, err := c.Fork(victim.ID, ForkRequest{ID: "child"})
	if err != nil {
		t.Fatal(err)
	}
	if child.Instant != 13 {
		t.Fatalf("child instant %d", child.Instant)
	}

	// Force eviction of everything resident, as a TTL sweep would.
	if n := daemon.evictIdle(0); n != 3 {
		t.Fatalf("evicted %d sessions, want 3", n)
	}
	info, err := c.Info(child.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Evicted || info.Instant != 13 {
		t.Fatalf("evicted child info = %+v", info)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Resident != 0 || st.Evicted != 3 || st.Evictions != 3 {
		t.Fatalf("stats after eviction = %+v", st)
	}

	// Touching the sessions revives them transparently; child and twin
	// must continue byte-identically.
	tail := instants(40)
	got, err := c.StepEvents(child.ID, tail)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.StepEvents(twin.ID, tail)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("revived child ran %d instants, twin %d", len(got), len(want))
	}
	for i := range want {
		if exec.ObservationString(got[i].Outputs, got[i].Terminated) !=
			exec.ObservationString(want[i].Outputs, want[i].Terminated) {
			t.Fatalf("instant %d: revived child %v, twin %v", want[i].Instant, got[i].Outputs, want[i].Outputs)
		}
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Revivals != 2 || st.Evicted != 1 {
		t.Fatalf("stats after revival = %+v", st)
	}
	// The still-parked victim is also intact and addressable.
	if _, err := c.StepEvents(victim.ID, instants(5)); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Stats(); err != nil || st.Revivals != 3 || st.Evicted != 0 {
		t.Fatalf("stats after full revival = %+v (%v)", st, err)
	}
}

// TestDaemonEvictReviveTable parks an efsm-table session as a snapshot
// blob and revives it: the table backend's slot-indexed machine must
// round-trip through the daemon's eviction path and continue
// byte-identically with an interpreter-family twin that never left
// memory (cross-backend conformance through a park/revive cycle).
func TestDaemonEvictReviveTable(t *testing.T) {
	c, daemon := testDaemon(t, func(cfg *Config) {
		cfg.IdleTTL = 30 * time.Minute
	})
	victim, err := c.Open(OpenRequest{
		ID: "victim", Path: "stack.ecl", Source: paperex.Stack,
		Module: "toplevel", Backend: "efsm-table",
	})
	if err != nil {
		t.Fatal(err)
	}
	if victim.Backend != "efsm-table" {
		t.Fatalf("backend = %q, want efsm-table", victim.Backend)
	}
	twin, err := c.Open(OpenRequest{
		ID: "twin", Path: "stack.ecl", Source: paperex.Stack,
		Module: "toplevel", Backend: "efsm",
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	instants := func(n int) []map[string]string {
		out := make([]map[string]string, n)
		for i := range out {
			in := map[string]string{}
			if rng.Intn(3) != 0 {
				in["in_byte"] = EncodeIntValue(1, int64(rng.Intn(256)))
			}
			out[i] = in
		}
		return out
	}
	warm := instants(17)
	if _, err := c.StepEvents(victim.ID, warm); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StepEvents(twin.ID, warm); err != nil {
		t.Fatal(err)
	}
	// Park the table session; keep the interpreter twin resident.
	daemon.mu.Lock()
	rec := daemon.recs[victim.ID]
	daemon.mu.Unlock()
	if rec == nil || !daemon.evict(rec) {
		t.Fatal("victim not evicted")
	}
	info, err := c.Info(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Evicted || info.Instant != 17 || info.Backend != "efsm-table" {
		t.Fatalf("evicted info = %+v", info)
	}
	// Stepping revives it; the continuation must match the twin.
	tail := instants(40)
	got, err := c.StepEvents(victim.ID, tail)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.StepEvents(twin.ID, tail)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("revived session ran %d instants, twin %d", len(got), len(want))
	}
	for i := range want {
		if exec.ObservationString(got[i].Outputs, got[i].Terminated) !=
			exec.ObservationString(want[i].Outputs, want[i].Terminated) {
			t.Fatalf("instant %d: revived table session %v, efsm twin %v",
				want[i].Instant, got[i].Outputs, want[i].Outputs)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Revivals != 1 || st.Evicted != 0 {
		t.Fatalf("stats after revival = %+v", st)
	}
}

// TestDaemonMaxSessionsLRU opens past the resident bound and checks the
// least recently touched session is evicted to make room, not refused.
func TestDaemonMaxSessionsLRU(t *testing.T) {
	c, daemon := testDaemon(t, func(cfg *Config) {
		cfg.MaxSessions = 3
	})
	for i := 0; i < 3; i++ {
		if _, err := c.Open(OpenRequest{ID: fmt.Sprintf("s%d", i), Path: "abro.ecl", Source: paperex.ABRO}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct lastTouch order
	}
	// Touch s0 so s1 becomes the LRU victim.
	if _, err := c.StepEvents("s0", []map[string]string{nil}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(OpenRequest{ID: "s3", Path: "abro.ecl", Source: paperex.ABRO}); err != nil {
		t.Fatal(err)
	}
	if daemon.session.Len() != 3 {
		t.Fatalf("%d resident, want 3", daemon.session.Len())
	}
	info, err := c.Info("s1")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Evicted {
		t.Fatalf("s1 not the evicted one: %+v", info)
	}
	// The evicted session is still fully usable.
	if _, err := c.StepEvents("s1", []map[string]string{{"A": ""}}); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonConcurrentOpensKeepBound opens n sessions at once against
// a k-session bound. Every admission passes the check made before
// compiling while nothing is resident yet, so the bound must be
// enforced again once each new machine counts: at most k stay
// resident, the rest are parked, and every session still steps.
func TestDaemonConcurrentOpensKeepBound(t *testing.T) {
	const n, k = 24, 4
	c, daemon := testDaemon(t, func(cfg *Config) {
		cfg.MaxSessions = k
	})
	ids := make([]string, n)
	errs := make(chan error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			info, err := c.Open(OpenRequest{Path: "stack.ecl", Source: paperex.Stack, Module: "toplevel"})
			if err != nil {
				errs <- err
				return
			}
			ids[i] = info.ID
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := daemon.session.Len(); got > k {
		t.Errorf("%d sessions resident after %d concurrent opens, want at most %d", got, n, k)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Evictions < n-k {
		t.Errorf("%d evictions after %d concurrent opens against a bound of %d, want at least %d", st.Evictions, n, k, n-k)
	}
	for _, id := range ids {
		if _, err := c.StepEvents(id, []map[string]string{nil, {"in_byte": EncodeIntValue(1, 7)}}); err != nil {
			t.Errorf("session %s: %v", id, err)
		}
	}
	if st, err := c.Stats(); err != nil || st.Errors != 0 {
		t.Errorf("stats after stepping = %+v (%v), want no errors", st, err)
	}
}

// TestDaemonConcurrentSessions hammers many machines from concurrent
// clients (run under -race).
func TestDaemonConcurrentSessions(t *testing.T) {
	c, _ := testDaemon(t, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			info, err := c.Open(OpenRequest{Path: "abro.ecl", Source: paperex.ABRO})
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(w)))
			for batch := 0; batch < 5; batch++ {
				inputs := make([]map[string]string, 8)
				for i := range inputs {
					in := map[string]string{}
					for _, name := range []string{"A", "B", "R"} {
						if rng.Intn(2) == 1 {
							in[name] = ""
						}
					}
					inputs[i] = in
				}
				if _, err := c.StepEvents(info.ID, inputs); err != nil {
					errs <- err
					return
				}
			}
			if err := c.Close(info.ID); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 16*5*8 || st.Resident != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDaemonHealthz checks the liveness endpoint's exact contract.
func TestDaemonHealthz(t *testing.T) {
	_, daemon := testDaemon(t, nil)
	srv := httptest.NewServer(daemon)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestParseScriptInstant covers the client-side script parser against
// signal descriptors.
func TestParseScriptInstant(t *testing.T) {
	inputs := []SignalInfo{
		{Name: "go", Pure: true},
		{Name: "x", Type: "int", Size: 4},
	}
	in, err := ParseScriptInstant(inputs, "go x=-2 # trailing comment")
	if err != nil {
		t.Fatal(err)
	}
	if in["go"] != "" || in["x"] != "0xfffffffe" {
		t.Fatalf("parsed %v", in)
	}
	if _, err := ParseScriptInstant(inputs, "nope"); err == nil || !strings.Contains(err.Error(), "go, x") {
		t.Fatalf("unknown input error: %v", err)
	}
	if _, err := ParseScriptInstant(inputs, "go=1"); err == nil {
		t.Fatal("value on pure signal accepted")
	}
	if _, err := ParseScriptInstant(inputs, "x=zz"); err == nil {
		t.Fatal("bad value accepted")
	}
	if in, err := ParseScriptInstant(inputs, "  # just a comment"); err != nil || len(in) != 0 {
		t.Fatalf("comment line: %v %v", in, err)
	}
}
