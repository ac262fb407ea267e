package rtos

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/kernel"
)

// fakeRunner emits a fixed set of wires on each activation.
type fakeRunner struct {
	emits []int
	runs  int
}

func (f *fakeRunner) React(in, out *Mailbox) (Reaction, error) {
	f.runs++
	for _, w := range f.emits {
		out.Put(w, cval.Value{})
	}
	return Reaction{Depth: 2, Units: 10}, nil
}

type runnerFunc func(in, out *Mailbox) (Reaction, error)

func (f runnerFunc) React(in, out *Mailbox) (Reaction, error) { return f(in, out) }

func sig(name string) *kernel.Signal {
	return &kernel.Signal{Name: name, Class: kernel.LocalSig, Pure: true}
}

func TestPostReadiesSubscribers(t *testing.T) {
	k := New(cost.Default())
	s := sig("s")
	r := &fakeRunner{}
	k.AddTask(&Task{Name: "t", Inputs: []*kernel.Signal{s}, Run: r})
	k.Post(k.Wire(s), cval.Value{})
	if _, err := k.RunToIdle(); err != nil {
		t.Fatal(err)
	}
	if r.runs != 1 {
		t.Fatalf("task ran %d times, want 1", r.runs)
	}
	if k.Activations != 1 || k.Switches != 1 {
		t.Errorf("activations=%d switches=%d", k.Activations, k.Switches)
	}
}

func TestEmissionCascade(t *testing.T) {
	k := New(cost.Default())
	a, b := sig("a"), sig("b")
	producer := &fakeRunner{emits: []int{k.Wire(b)}}
	consumer := &fakeRunner{}
	k.AddTask(&Task{Name: "prod", Prio: 0, Inputs: []*kernel.Signal{a}, Run: producer})
	k.AddTask(&Task{Name: "cons", Prio: 1, Inputs: []*kernel.Signal{b}, Run: consumer})
	k.Post(k.Wire(a), cval.Value{})
	emitted, err := k.RunToIdle()
	if err != nil {
		t.Fatal(err)
	}
	if consumer.runs != 1 {
		t.Fatal("cascade did not reach the consumer")
	}
	if _, ok := emitted.Get(k.Wire(b)); !ok {
		t.Error("emitted set missing b")
	}
	if _, ok := emitted.Get(k.Wire(a)); ok {
		t.Error("emitted set holds the environment's post of a")
	}
}

func TestPriorityOrder(t *testing.T) {
	k := New(cost.Default())
	s := sig("s")
	var order []string
	mk := func(name string) Runner {
		return runnerFunc(func(in, out *Mailbox) (Reaction, error) {
			order = append(order, name)
			return Reaction{}, nil
		})
	}
	k.AddTask(&Task{Name: "low", Prio: 5, Inputs: []*kernel.Signal{s}, Run: mk("low")})
	k.AddTask(&Task{Name: "high", Prio: 1, Inputs: []*kernel.Signal{s}, Run: mk("high")})
	k.Post(k.Wire(s), cval.Value{})
	if _, err := k.RunToIdle(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Errorf("dispatch order: %v", order)
	}
}

func TestCycleAccounting(t *testing.T) {
	model := cost.Default()
	k := New(model)
	s := sig("s")
	k.AddTask(&Task{Name: "t", Inputs: []*kernel.Signal{s}, Run: &fakeRunner{}})
	k.Post(k.Wire(s), cval.Value{})
	if _, err := k.RunToIdle(); err != nil {
		t.Fatal(err)
	}
	wantKernel := int64(model.EventPost + 2*model.SchedulerPass + model.ContextSwitch + model.TaskDispatch)
	if k.KernelCycles != wantKernel {
		t.Errorf("kernel cycles = %d, want %d", k.KernelCycles, wantKernel)
	}
	wantTask := int64(model.ReactionCycles(2, 10))
	if k.TaskCycles != wantTask {
		t.Errorf("task cycles = %d, want %d", k.TaskCycles, wantTask)
	}
	k.ResetCounters()
	if k.TaskCycles != 0 || k.KernelCycles != 0 {
		t.Error("reset failed")
	}
}

func TestValueLatching(t *testing.T) {
	k := New(cost.Default())
	s := &kernel.Signal{Name: "v", Class: kernel.LocalSig}
	var got int64 = -1
	k.AddTask(&Task{Name: "t", Inputs: []*kernel.Signal{s}, Run: runnerFunc(
		func(in, out *Mailbox) (Reaction, error) {
			if v, ok := in.Get(k.Wire(s)); ok && v.IsValid() {
				got = v.Int()
			}
			return Reaction{}, nil
		})})
	val := cval.FromInt(ctypes.Int, 42)
	k.Post(k.Wire(s), val)
	// Mutating the poster's copy must not affect the latched value.
	val.SetInt(7)
	if _, err := k.RunToIdle(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("latched value = %d, want 42 (deep copy)", got)
	}
}

func TestReadyAll(t *testing.T) {
	k := New(cost.Default())
	r1, r2 := &fakeRunner{}, &fakeRunner{}
	k.AddTask(&Task{Name: "a", Run: r1})
	k.AddTask(&Task{Name: "b", Run: r2})
	k.ReadyAll()
	if _, err := k.RunToIdle(); err != nil {
		t.Fatal(err)
	}
	if r1.runs != 1 || r2.runs != 1 {
		t.Errorf("boot runs: %d, %d", r1.runs, r2.runs)
	}
}

// TestRedeliveryReusesStorage checks that a mailbox latches a
// re-delivered valued wire into the storage of the first delivery: a
// steady-state post, dispatch and emission allocate nothing.
func TestRedeliveryReusesStorage(t *testing.T) {
	k := New(cost.Default())
	in := &kernel.Signal{Name: "in", Class: kernel.Input, Type: ctypes.Int}
	echo := &kernel.Signal{Name: "echo", Class: kernel.Output, Type: ctypes.Int}
	wIn, wEcho := k.Wire(in), k.Wire(echo)
	var got int64
	k.AddTask(&Task{Name: "t", Inputs: []*kernel.Signal{in}, Run: runnerFunc(
		func(inbox, out *Mailbox) (Reaction, error) {
			v, _ := inbox.Get(wIn)
			out.Put(wEcho, v)
			return Reaction{}, nil
		})})
	val := cval.FromInt(ctypes.Int, 1)
	step := func() {
		k.Post(wIn, val)
		emitted, err := k.RunToIdle()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := emitted.Get(wEcho)
		if !ok || !v.IsValid() {
			t.Fatal("echo not emitted with a value")
		}
		got = v.Int()
	}
	step()
	if allocs := testing.AllocsPerRun(100, func() {
		val.SetInt(got + 1)
		step()
	}); allocs != 0 {
		t.Errorf("re-delivery allocates %.1f objects/op, want 0", allocs)
	}
	if got != 102 {
		t.Errorf("last echo = %d, want 102", got)
	}
}
