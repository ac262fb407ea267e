package exec

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cval"
	"repro/internal/paperex"
)

// finisSrc is a module that terminates: await one go, emit done, end.
const finisSrc = `
module finis (input pure go, output pure done)
{
    await (go);
    emit (done);
}
`

// TestSessionCloseRace is the regression test for the Close race:
// Close used to delete the map entry without taking the machine's own
// mutex, so a concurrent Step/Fork could run against a machine its
// owner believed gone, and two racing Closes both reported success.
// Run under -race.
func TestSessionCloseRace(t *testing.T) {
	abro := buildDesign(t, "abro.ecl", paperex.ABRO, "abro")
	s := NewSession()
	for round := 0; round < 20; round++ {
		id, err := s.Open("", "efsm", abro)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var closed atomic.Int64
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					s.Step(id, map[string]cval.Value{"A": {}})
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if dst, err := s.Fork(id, ""); err == nil {
						s.Close(dst)
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Close(id); err == nil {
					closed.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := closed.Load(); n != 1 {
			t.Fatalf("round %d: %d racing Closes succeeded, want exactly 1", round, n)
		}
		// Every post-close operation fails cleanly.
		if _, err := s.Step(id, nil); err == nil {
			t.Fatal("Step after Close succeeded")
		}
		if _, err := s.Fork(id, ""); err == nil {
			t.Fatal("Fork after Close succeeded")
		}
		if err := s.Close(id); err == nil {
			t.Fatal("second Close succeeded")
		}
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("%d machines leaked past their Close", n)
	}
}

// TestSessionStepBatch runs a whole input sequence under one lock
// acquisition and checks it matches instant-by-instant stepping.
func TestSessionStepBatch(t *testing.T) {
	abro := buildDesign(t, "abro.ecl", paperex.ABRO, "abro")
	s := NewSession()
	one, err := s.Open("", "efsm", abro)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := s.Open("", "efsm", abro)
	if err != nil {
		t.Fatal(err)
	}
	batch := []map[string]cval.Value{
		nil,
		{"A": {}},
		{"B": {}},
		{"R": {}},
		{"A": {}, "B": {}},
	}
	var want []*Result
	for _, in := range batch {
		res, err := s.Step(one, in)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	got, err := s.StepBatch(batched, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch ran %d instants, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(EncodeInstant(got[i].Outputs), EncodeInstant(want[i].Outputs)) {
			t.Errorf("instant %d: batch %v, single %v", i, got[i].Outputs, want[i].Outputs)
		}
	}
	if n, _ := s.Instant(batched); n != len(batch) {
		t.Errorf("instant counter %d, want %d", n, len(batch))
	}

	// A batch stops after the terminating instant, keeping what ran.
	fin := buildDesign(t, "finis.ecl", finisSrc, "finis")
	id, err := s.Open("", "efsm", fin)
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.StepBatch(id, []map[string]cval.Value{
		nil, {"go": {}}, nil, nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || !results[1].Terminated {
		t.Fatalf("terminating batch ran %d instants (want 2, last terminated)", len(results))
	}
}

// TestSessionStepEvents checks the wire-level batch: encoded inputs in,
// canonical trace events out, numbered by the machine's own counter,
// with partial results surviving a mid-batch error.
func TestSessionStepEvents(t *testing.T) {
	abro := buildDesign(t, "abro.ecl", paperex.ABRO, "abro")
	s := NewSession()
	id, err := s.Open("", "interp", abro)
	if err != nil {
		t.Fatal(err)
	}
	events, err := s.StepEvents(id, []map[string]string{
		nil, {"A": ""}, {"B": ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Instant != i {
			t.Errorf("event %d numbered %d", i, ev.Instant)
		}
	}
	if _, ok := events[2].Outputs["O"]; !ok {
		t.Errorf("AB did not emit O: %v", events[2].Outputs)
	}

	// A bad input mid-batch returns the events that did execute.
	events, err = s.StepEvents(id, []map[string]string{
		{"R": ""}, {"bogus": ""}, {"A": ""},
	})
	if err == nil {
		t.Fatal("unknown input did not error")
	}
	if len(events) != 1 {
		t.Fatalf("partial batch kept %d events, want 1", len(events))
	}
	if n, _ := s.Instant(id); n != 4 {
		t.Errorf("instant counter %d after partial batch, want 4", n)
	}
}

// severalBadInputs names three bad inputs of abro at once: two unknown
// names and a value on the pure input A.
var severalBadInputs = map[string]string{"bogus": "", "zzz": "", "A": "0x01"}

// TestSeveralBadInputsOneError steps an instant naming several bad
// inputs 200 times, on the wire path (Session.StepEvents) and on the
// map path (Machine.Step), on interp and the table VM. Each path must
// report one error text every time, the same on both backends: the
// first bad name in sorted order, not the first in map order.
func TestSeveralBadInputsOneError(t *testing.T) {
	abro := buildDesign(t, "abro.ecl", paperex.ABRO, "abro")
	mapIn := map[string]cval.Value{"bogus": {}, "zzz": {}, "A": cval.FromBool(true)}
	const want = `machine "m" instant 0: input A: value "0x01" for a pure signal`
	for _, backend := range []string{"interp", "efsm-table"} {
		s := NewSession()
		id, err := s.Open("m", backend, abro)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Open(backend, abro)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for range 200 {
			_, err := s.StepEvents(id, []map[string]string{severalBadInputs})
			seen["wire: "+fmt.Sprint(err)]++
			_, err = m.Step(mapIn)
			seen["map: "+fmt.Sprint(err)]++
		}
		if len(seen) != 2 || seen["wire: "+want] != 200 || seen["map: input A is pure and carries no value"] != 200 {
			t.Errorf("%s: error texts over 200 steps: %v", backend, seen)
		}
	}
}

// stepEventsTable is the StepEvents parity table: one design and the
// batches sent to it, covering re-encoded non-canonical hex, every
// decode error after a partial batch, valued outputs and termination
// mid-batch.
var stepEventsTable = []struct {
	path, src, module string
	batches           [][]map[string]string
}{
	{"stack.ecl", paperex.Stack, "toplevel", [][]map[string]string{
		{{"in_byte": "0x7e"}, {}, nil, {"reset": ""}, {"in_byte": "0x00", "reset": ""}, {"in_byte": ""}},
		{{"in_byte": "0xAB"}, {"in_byte": "ab"}, {"in_byte": "0xaB"}, {"in_byte": "0x01"}},
		{{"in_byte": "0x01"}, {"bogus": ""}, {}},
		{{}, {"in_byte": "0x0102"}, {}},
		{{"in_byte": "0xzz"}},
		{{"in_byte": "0x7"}},
		{{"in_byte": "0X7e"}},
		{{"in_byte": "0x"}},
		{{"reset": "0x01"}},
		{{"reset": "0x"}},
		{{"in_byte": "0x02"}, {"reset": ""}},
	}},
	{"stack.ecl", paperex.Stack, "checkcrc", [][]map[string]string{
		{{"inpkt": packetHex(true)}, {}, {"inpkt": strings.ToUpper(packetHex(false))[2:]}, {"inpkt": packetHex(true), "reset": ""}},
		{{"inpkt": "0x00"}},
	}},
	{"finis.ecl", finisSrc, "finis", [][]map[string]string{
		{{}, {"go": ""}, {}, {}},
		{{}, {"go": ""}},
	}},
}

func packetHex(good bool) string {
	pkt := paperex.MakePacket(good)
	return "0x" + hex.EncodeToString(pkt[:])
}

// TestSessionStepEventsParity runs the parity table through
// Session.StepEvents on interp (the map path) and on the slot-stepping
// backends, and requires the same events, error texts and instant
// counters from all of them.
func TestSessionStepEventsParity(t *testing.T) {
	for _, tc := range stepEventsTable {
		d := buildDesign(t, tc.path, tc.src, tc.module)
		var want []string
		for _, backend := range []string{"interp", "efsm", "efsm-min", "efsm-table"} {
			s := NewSession()
			id, err := s.Open("m", backend, d)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, batch := range tc.batches {
				events, err := s.StepEvents(id, batch)
				n, _ := s.Instant(id)
				got = append(got, fmt.Sprintf("%#v / %v / instant %d", events, err, n))
			}
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s on %s, batch %d:\n got %s\nwant %s", tc.module, backend, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStepEventsSlotAllocs pins the slot-native StepEvents: with
// canonical inputs and no output present, a batch allocates only its
// event slice — no decoded value maps, no per-instant encoding.
func TestStepEventsSlotAllocs(t *testing.T) {
	stack := buildDesign(t, "stack.ecl", paperex.Stack, "toplevel")
	s := NewSession()
	id, err := s.Open("", "efsm-table", stack)
	if err != nil {
		t.Fatal(err)
	}
	batch := []map[string]string{{"in_byte": "0x00"}, {}, {"in_byte": "0x00", "reset": ""}, {"in_byte": "0xff"}}
	allocs := testing.AllocsPerRun(100, func() {
		events, err := s.StepEvents(id, batch)
		if err != nil || len(events) != len(batch) || events[0].Outputs != nil {
			t.Fatalf("StepEvents = %v, %v", events, err)
		}
	})
	if allocs != 1 {
		t.Errorf("StepEvents makes %v allocations per batch, want 1 (the event slice)", allocs)
	}
}

// TestSessionEvictRestore parks a session as a snapshot blob and
// revives it, checking the revived machine continues byte-identically
// with an unevicted twin — including a forked child evicted while its
// parent keeps stepping.
func TestSessionEvictRestore(t *testing.T) {
	stack := buildDesign(t, "stack.ecl", paperex.Stack, "toplevel")
	for _, backend := range []string{"interp", "efsm", "efsm-min"} {
		t.Run(backend, func(t *testing.T) {
			s := NewSession()
			id, err := s.Open("victim", backend, stack)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := s.Open("twin", backend, stack)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			m, _ := Open(backend, stack)
			warmup := encodeInstants(randomInstantsFor(rng, m, 9, 0.7))
			if _, err := s.StepEvents(id, warmup); err != nil {
				t.Fatal(err)
			}
			if _, err := s.StepEvents(twin, warmup); err != nil {
				t.Fatal(err)
			}

			// Fork a child at the warm point, then evict it while the
			// parent keeps stepping concurrently.
			child, err := s.Fork(id, "child")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				extra := encodeInstants(randomInstantsFor(rand.New(rand.NewSource(8)), m, 50, 0.5))
				for _, in := range extra {
					if _, err := s.StepEvents(id, []map[string]string{in}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			blob, err := s.Evict(child)
			<-done
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.StepEvents(child, nil); err == nil {
				t.Fatal("evicted machine still addressable")
			}
			revived, err := s.Restore("", backend, stack, blob)
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := s.Instant(revived); n != 9 {
				t.Fatalf("revived instant counter %d, want 9", n)
			}

			// The revived child and the never-evicted twin must now be
			// byte-identical continuations of the same state.
			tail := encodeInstants(randomInstantsFor(rng, m, 30, 0.6))
			got, err := s.StepEvents(revived, tail)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.StepEvents(twin, tail)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("revived continuation diverged from twin:\ngot  %v\nwant %v", got, want)
			}
		})
	}

	// The sim backend has no portable snapshots: Evict reports
	// ErrUnsupported and leaves the machine open.
	abro := buildDesign(t, "abro.ecl", paperex.ABRO, "abro")
	s := NewSession()
	id, err := s.Open("", "sim", abro)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evict(id); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("sim Evict error %v, want ErrUnsupported", err)
	}
	if _, err := s.Step(id, nil); err != nil {
		t.Fatalf("failed Evict closed the machine: %v", err)
	}
}

// encodeInstants renders cval instants as wire input maps.
func encodeInstants(instants []map[string]cval.Value) []map[string]string {
	out := make([]map[string]string, len(instants))
	for i, in := range instants {
		out[i] = EncodeInstant(in)
	}
	return out
}

// TestSessionInfo reads identity, interface, and progress in one call.
func TestSessionInfo(t *testing.T) {
	abro := buildDesign(t, "abro.ecl", paperex.ABRO, "abro")
	s := NewSession()
	id, err := s.Open("m", "efsm", abro)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(id, nil); err != nil {
		t.Fatal(err)
	}
	info, err := s.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "m" || info.Backend != "efsm" || info.Module != "abro" || info.Instant != 1 {
		t.Fatalf("info = %+v", info)
	}
	var names []string
	for _, sig := range info.Inputs {
		names = append(names, sig.Name)
	}
	if strings.Join(names, "") != "ABR" {
		t.Fatalf("inputs %v", names)
	}
	if err := s.Close(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Info(id); err == nil {
		t.Fatal("Info after Close succeeded")
	}
}
