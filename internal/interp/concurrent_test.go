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
	"repro/internal/kernel"
	"repro/internal/lower"
	"repro/internal/paperex"
)

// faultySrc forks four threads on go. With boom present, the second
// one divides by zero while the first is blocked on s; with loop
// present, the third one's test of s is a causality cycle. Either way
// the reaction fails while siblings are still blocked or not yet run.
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

// wideSrc forks 80 threads in one reaction.
var wideSrc = `module wide(input pure a, output pure o) {
    while (1) {
        par {` + strings.Repeat(" { await (a); emit (o); }", 80) + ` }
    }
}`

// concurrentMachines names the machines TestConcurrentMachines runs:
// the paper's par-heavy stack and ABRO, the faulty module and the wide
// one.
var concurrentMachines = []struct {
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

// TestConcurrentMachines runs 1,600 reactions of par-heavy machines
// from several goroutines at once, including reactions that fail with
// a causality error or a runtime error in one thread while its siblings
// are blocked, and reactions that fork many threads. Every trace must
// equal a fresh machine's, during the run and after a reset, so
// concurrent machines share no state; and the interpreter starts no
// goroutine, so afterwards no more goroutines are left than before.
func TestConcurrentMachines(t *testing.T) {
	const workers, reactions = 4, 100
	want := make([]string, len(concurrentMachines))
	machines := make([][]*Machine, workers)
	for k, cm := range concurrentMachines {
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
				cm := concurrentMachines[k]
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
			cm := concurrentMachines[k]
			if got := runScript(m, cm.inputs, int64(k), reactions); got != want[k] {
				t.Errorf("worker %d: %s trace after reset differs from a fresh machine's", w, cm.module)
			}
		}
	}

	// The test's own workers are exiting; wait for them.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, want at most the %d before it", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// panickyHooks are data hooks whose assignments panic, as a bug in a
// data action would.
type panickyHooks struct{ DataHooks }

const hookPanic = "assignment hook bug"

func (panickyHooks) ExecAssign(lhs, rhs kernel.Expr) error { panic(hookPanic) }

// TestPanicReachesReactCaller makes a data action panic while a
// sibling thread is blocked. The panic must unwind React on the
// caller's goroutine, leave no goroutine behind, and leave the machine
// able to react as if the panicking instant had not happened.
func TestPanicReachesReactCaller(t *testing.T) {
	cm := concurrentMachines[2]
	m := build(t, cm.src, cm.module, lower.MaximalReactive)
	fresh := build(t, cm.src, cm.module, lower.MaximalReactive)
	react(t, m)
	react(t, fresh)

	hooks := m.hooks
	m.SetHooks(panickyHooks{hooks})
	before := runtime.NumGoroutine()
	got := func() (p any) {
		defer func() { p = recover() }()
		react(t, m, "go", "boom")
		return nil
	}()
	if got != hookPanic {
		t.Fatalf("React's caller recovered %v, want %q", got, hookPanic)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the panic, want at most the %d before it", n, before)
	}

	m.SetHooks(hooks)
	if got, want := runScript(m, cm.inputs, 1, 50), runScript(fresh, cm.inputs, 1, 50); got != want {
		t.Errorf("trace after the panic differs from a fresh machine's:\n%s\nwant:\n%s", got, want)
	}
}
