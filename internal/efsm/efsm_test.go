package efsm

import (
	"strings"
	"testing"

	"repro/internal/kernel"
)

// tinyMachine builds a two-state machine by hand:
//
//	s0: if A { emit O; -> s1 } else { -> s0 }
//	s1: -> s0 (terminal when B)
func tinyMachine() (*Machine, *kernel.Signal, *kernel.Signal, *kernel.Signal) {
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
	s0 := &State{ID: 0, Key: "s0"}
	s1 := &State{ID: 1, Key: "s1"}
	s0.Root = &InputBranch{
		Sig: a,
		Then: &ActNode{
			Act:  Action{Kind: ActEmit, Sig: o},
			Next: &Leaf{To: s1},
		},
		Else: &Leaf{To: s0},
	}
	s1.Root = &InputBranch{
		Sig:  b,
		Then: &Leaf{Terminal: true},
		Else: &Leaf{To: s0},
	}
	m := &Machine{
		Name:    "tiny",
		Mod:     mod,
		Inputs:  mod.Inputs,
		Outputs: mod.Outputs,
		States:  []*State{s0, s1},
		Initial: s0,
	}
	return m, a, b, o
}

func TestTransitionsFlatten(t *testing.T) {
	m, a, _, _ := tinyMachine()
	ts := m.Transitions(m.States[0])
	if len(ts) != 2 {
		t.Fatalf("transitions = %d, want 2", len(ts))
	}
	var withA *Transition
	for _, tr := range ts {
		if tr.Inputs[a] {
			withA = tr
		}
	}
	if withA == nil || len(withA.Actions) != 1 || withA.To.ID != 1 {
		t.Fatalf("A-transition wrong: %+v", withA)
	}
	if g := withA.GuardString(); g != "A" {
		t.Errorf("guard = %q", g)
	}
}

func TestStatsAndDepth(t *testing.T) {
	m, _, _, _ := tinyMachine()
	st := m.CollectStats()
	if st.States != 2 || st.Branches != 2 || st.Actions != 1 || st.Leaves != 4 {
		t.Errorf("stats: %+v", st)
	}
	if st.MaxDepth < 2 {
		t.Errorf("depth = %d", st.MaxDepth)
	}
}

func TestMinimizeMergesDuplicates(t *testing.T) {
	// Two states with identical trees must merge.
	m, a, _, o := tinyMachine()
	dup := &State{ID: 2, Key: "dup"}
	dup.Root = m.States[0].Root // structurally identical by sharing
	// Rebuild as a separate structure to avoid pointer aliasing.
	dup.Root = &InputBranch{
		Sig: a,
		Then: &ActNode{
			Act:  Action{Kind: ActEmit, Sig: o},
			Next: &Leaf{To: m.States[1]},
		},
		Else: &Leaf{To: dup},
	}
	// dup's Else goes to itself while s0's Else goes to s0; they are
	// bisimilar, so minimization should merge them.
	m.States = append(m.States, dup)
	min, merged := Minimize(m)
	if merged != 1 {
		t.Fatalf("merged = %d, want 1", merged)
	}
	if len(min.States) != 2 {
		t.Fatalf("states = %d, want 2", len(min.States))
	}
}

func TestMinimizeKeepsDistinct(t *testing.T) {
	m, _, _, _ := tinyMachine()
	min, merged := Minimize(m)
	if merged != 0 || len(min.States) != 2 {
		t.Fatalf("distinct states merged: %d", merged)
	}
}

func TestDotRendering(t *testing.T) {
	m, _, _, _ := tinyMachine()
	dot := m.Dot()
	for _, want := range []string{"digraph \"tiny\"", "init -> s0", "emit O", "s0 -> s1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q\n%s", want, dot)
		}
	}
}

func TestActionString(t *testing.T) {
	o := &kernel.Signal{Name: "O", Pure: true}
	if got := (Action{Kind: ActEmit, Sig: o}).String(); got != "emit O" {
		t.Errorf("got %q", got)
	}
	f := &kernel.DataFunc{Name: "f1"}
	if got := (Action{Kind: ActCall, F: f}).String(); got != "f1()" {
		t.Errorf("got %q", got)
	}
}
