package table

import (
	"testing"
	"unsafe"

	"repro/internal/cval"
	"repro/internal/efsm"
	"repro/internal/kernel"
	"repro/internal/sem"
)

// tinyMachine builds a two-state machine by hand:
//
//	s0: if A { emit O; -> s1 } else { -> s0 }
//	s1: -> s0 (terminal when B)
func tinyMachine() *efsm.Machine {
	a := &kernel.Signal{Name: "A", Class: kernel.Input, Pure: true}
	b := &kernel.Signal{Name: "B", Class: kernel.Input, Pure: true}
	o := &kernel.Signal{Name: "O", Class: kernel.Output, Pure: true}
	mod := &kernel.Module{
		Name:    "tiny",
		Inputs:  []*kernel.Signal{a, b},
		Outputs: []*kernel.Signal{o},
		Body:    &kernel.Halt{},
	}
	mod.Number()
	s0 := &efsm.State{ID: 0, Key: "s0"}
	s1 := &efsm.State{ID: 1, Key: "s1"}
	s0.Root = &efsm.InputBranch{
		Sig: a,
		Then: &efsm.ActNode{
			Act:  efsm.Action{Kind: efsm.ActEmit, Sig: o},
			Next: &efsm.Leaf{To: s1},
		},
		Else: &efsm.Leaf{To: s0},
	}
	s1.Root = &efsm.InputBranch{
		Sig:  b,
		Then: &efsm.Leaf{Terminal: true},
		Else: &efsm.Leaf{To: s0},
	}
	return &efsm.Machine{
		Name:    "tiny",
		Mod:     mod,
		Info:    &sem.Info{},
		Inputs:  mod.Inputs,
		Outputs: mod.Outputs,
		States:  []*efsm.State{s0, s1},
		Initial: s0,
	}
}

// TestStepTinyMachine walks a hand-built machine through an idle
// instant, an emitting transition and termination, checking outputs,
// control state and the per-reaction cost (units, depth).
func TestStepTinyMachine(t *testing.T) {
	p, err := Compile(tinyMachine())
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	present := make([]bool, 3)
	in, out := make([]cval.Value, 2), make([]cval.Value, 1)
	step := func(a, b bool) bool {
		t.Helper()
		present[0], present[1] = a, b
		done, err := m.Step(present, in, out)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	cost := func(units, depth int) {
		t.Helper()
		if u, d := m.Cost(); u != units || d != depth {
			t.Errorf("cost = %d units, depth %d; want %d, %d", u, d, units, depth)
		}
	}

	if step(false, false) || present[2] || m.StateID() != 0 {
		t.Fatal("idle step misbehaved")
	}
	cost(2, 2) // input test, leaf
	if step(true, false) || !present[2] || m.StateID() != 1 {
		t.Fatalf("A step: O=%v state=%d", present[2], m.StateID())
	}
	cost(5, 3) // input test, emit, leaf
	if !step(false, true) || !m.Terminated() {
		t.Fatal("termination missed")
	}
	cost(2, 2)
	if !step(false, false) {
		t.Fatal("terminated machine must stay terminated")
	}
	cost(0, 0)
}

// TestInstrSize pins the instruction layout: the per-instruction charge
// lives in the padding after the opcode, so the bytecode stays 24 bytes
// per instruction.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(instr{}); n != 24 {
		t.Errorf("instr is %d bytes, want 24", n)
	}
}
