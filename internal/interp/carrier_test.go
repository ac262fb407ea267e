package interp

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/lower"
	"repro/internal/paperex"
)

// faultySrc forks four threads on go. With boom present, the second
// one divides by zero while the first is blocked on s; with loop
// present, the third one's test of s is a causality cycle. Either way
// the reaction fails and the scheduler kills the live siblings.
const faultySrc = `module faulty(input pure go, input pure boom, input pure loop,
                    input pure tick, output pure o, output pure done) {
    signal pure s;
    int z;
    int x;
    z = 0;
    while (1) {
        await (go);
        par {
            { present (s) emit (o); }
            { present (boom) { x = 1 / z; } }
            { present (loop) { present (s) emit (o); else emit (s); } }
            { await (tick); emit (done); }
        }
    }
}`

// wideSrc forks more threads in one reaction than the park holds, so
// the carriers that find it full exit.
var wideSrc = `module wide(input pure a, output pure o) {
    while (1) {
        par {` + strings.Repeat(" { await (a); emit (o); }", parkSize+16) + ` }
    }
}`

// carrierMachines names the machines TestCarriersConcurrentMachines
// runs: the paper's par-heavy stack and ABRO, the faulty module and
// the wide one.
var carrierMachines = []struct {
	src, module string
	inputs      []string
}{
	{paperex.Stack, "toplevel", []string{"reset"}},
	{paperex.ABRO, "abro", []string{"A", "B", "R"}},
	{faultySrc, "faulty", []string{"go", "boom", "loop", "tick"}},
	{wideSrc, "wide", []string{"a"}},
}

// runScript reacts n times to seeded random inputs and returns the
// trace: each reaction's emitted signals with output values, or its
// error.
func runScript(m *Machine, pure []string, seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < n; i++ {
		in := Inputs{}
		for _, name := range pure {
			if rng.Intn(4) == 0 {
				in[m.Mod.Signal(name)] = cval.Value{}
			}
		}
		if sig := m.Mod.Signal("in_byte"); sig != nil && rng.Intn(8) != 0 {
			in[sig] = cval.FromInt(ctypes.UChar, int64(rng.Intn(256)))
		}
		r, err := m.React(in)
		if err != nil {
			fmt.Fprintf(&b, "%d: error %v\n", i, err)
			continue
		}
		fmt.Fprintf(&b, "%d:", i)
		for _, sig := range r.Emitted {
			fmt.Fprintf(&b, " %s", sig.Name)
			if v, ok := r.Outputs[sig]; ok && v.IsValid() {
				fmt.Fprintf(&b, "=%x", v.B)
			}
		}
		fmt.Fprintf(&b, " term=%t\n", r.Terminated)
	}
	return b.String()
}

// TestCarriersConcurrentMachines runs 1,600 reactions of par-heavy
// machines from several goroutines at once, so threads of different
// machines share the parked carriers, including reactions that fail
// with a causality error or a runtime error in one thread while its
// siblings are blocked, and reactions that need more carriers than the
// park holds. Every trace must equal a fresh machine's, during the run
// and after a reset, and afterwards no more goroutines may be left
// than the park holds.
func TestCarriersConcurrentMachines(t *testing.T) {
	const workers, reactions = 4, 100
	want := make([]string, len(carrierMachines))
	machines := make([][]*Machine, workers)
	for k, cm := range carrierMachines {
		want[k] = runScript(build(t, cm.src, cm.module, lower.MaximalReactive), cm.inputs, int64(k), reactions)
		for w := range machines {
			machines[w] = append(machines[w], build(t, cm.src, cm.module, lower.MaximalReactive))
		}
	}
	for _, f := range []string{"error causality", "error division by zero"} {
		if !strings.Contains(want[2], f) {
			t.Fatalf("faulty script has no %q reaction:\n%s", f, want[2])
		}
	}

	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for w := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, m := range machines[w] {
				cm := carrierMachines[k]
				if got := runScript(m, cm.inputs, int64(k), reactions); got != want[k] {
					t.Errorf("worker %d: %s trace differs from a fresh machine's:\n%s\nwant:\n%s", w, cm.module, got, want[k])
				}
			}
		}()
	}
	wg.Wait()

	for w, ms := range machines {
		for k, m := range ms {
			m.Reset()
			cm := carrierMachines[k]
			if got := runScript(m, cm.inputs, int64(k), reactions); got != want[k] {
				t.Errorf("worker %d: %s trace after reset differs from a fresh machine's", w, cm.module)
			}
		}
	}

	// The test's own goroutines and any carrier that found the park
	// full are exiting; wait for them.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+parkSize {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, want at most %d before it plus %d parked carriers",
				runtime.NumGoroutine(), before, parkSize)
		}
		time.Sleep(time.Millisecond)
	}
}
