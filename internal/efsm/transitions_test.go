package efsm_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eclgen"
	"repro/internal/efsm"
	"repro/internal/kernel"
)

var update = flag.Bool("update", false, "rewrite testdata/transitions.golden from the current code")

const transitionsGolden = "testdata/transitions.golden"

// TestTransitionsGolden pins Machine.Transitions over every module of
// examples/*.ecl and the first 100 generated programs: for each state
// in order, every root-to-leaf path with its endpoints, terminal flag,
// guard, data conditions and actions, in Transitions order. It also
// checks the per-transition ownership contract: Data and Actions are
// non-nil, and no transition shares its Inputs map or a backing array
// with another.
func TestTransitionsGolden(t *testing.T) {
	var b strings.Builder
	dumpMachine(t, &b, "hand-built twice", twiceMachine())

	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.ecl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		dumpProgram(t, &b, "examples/"+filepath.Base(p), string(src))
	}
	for seed := int64(1); seed <= 100; seed++ {
		dumpProgram(t, &b, fmt.Sprintf("eclgen.Program(%d)", seed), eclgen.Program(seed))
	}

	got := b.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(transitionsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transitionsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(transitionsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transitions diverge from %s at line %d:\n got: %s\nwant: %s", transitionsGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transitions diverge from %s: %d lines, want %d", transitionsGolden, len(gl), len(wl))
	}
}

func dumpProgram(t *testing.T, b *strings.Builder, name, src string) {
	t.Helper()
	prog, err := core.Parse(name, src, core.Options{})
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	for _, mod := range prog.Modules() {
		d, err := prog.Compile(mod)
		if err != nil {
			t.Fatalf("%s module %s: compile: %v", name, mod, err)
		}
		dumpMachine(t, b, name+" "+mod, d.Machine)
	}
}

func dumpMachine(t *testing.T, b *strings.Builder, name string, m *efsm.Machine) {
	t.Helper()
	fmt.Fprintf(b, "== %s (%d states)\n", name, len(m.States))
	for _, s := range m.States {
		// Addresses are compared within one call's result only, while
		// ts keeps every transition of it alive.
		maps := map[uintptr]bool{}
		arrays := map[uintptr]bool{}
		ts := m.Transitions(s)
		for i, tr := range ts {
			to := "end"
			if tr.To != nil {
				to = fmt.Sprintf("s%d", tr.To.ID)
			}
			fmt.Fprintf(b, "s%d #%d -> %s term=%v guard=%s\n", tr.From.ID, i, to, tr.Term, tr.GuardString())
			for _, dc := range tr.Data {
				fmt.Fprintf(b, "  data %v: %s\n", dc.Want, dc.Expr)
			}
			for _, a := range tr.Actions {
				fmt.Fprintf(b, "  act %s\n", a)
			}
			if tr.From != s || tr.Inputs == nil || tr.Data == nil || tr.Actions == nil {
				t.Fatalf("%s s%d #%d: from/inputs/data/actions missing: %+v", name, s.ID, i, tr)
			}
			owned(t, maps, reflect.ValueOf(tr.Inputs).Pointer(), name, "Inputs map")
			if cap(tr.Data) > 0 {
				owned(t, arrays, reflect.ValueOf(tr.Data).Pointer(), name, "Data array")
			}
			if cap(tr.Actions) > 0 {
				owned(t, arrays, reflect.ValueOf(tr.Actions).Pointer(), name, "Actions array")
			}
		}
		runtime.KeepAlive(ts)
	}
}

func owned(t *testing.T, seen map[uintptr]bool, p uintptr, name, what string) {
	t.Helper()
	if seen[p] {
		t.Fatalf("%s: two transitions share one %s", name, what)
	}
	seen[p] = true
}

// twiceMachine tests input A twice on one path, under a data branch
// and between actions, so the golden pins that a re-tested signal
// keeps its last outcome and that actions keep their path order.
func twiceMachine() *efsm.Machine {
	a := &kernel.Signal{Name: "A", Class: kernel.Input, Pure: true}
	o := &kernel.Signal{Name: "O", Class: kernel.Output, Pure: true}
	p := &kernel.Signal{Name: "P", Class: kernel.Output, Pure: true}
	mod := &kernel.Module{
		Name:    "twice",
		Inputs:  []*kernel.Signal{a},
		Outputs: []*kernel.Signal{o, p},
		Body:    &kernel.Halt{},
	}
	mod.Number()
	s0 := &efsm.State{ID: 0, Key: "s0"}
	cond := kernel.Expr{E: &ast.Ident{Name: "c"}}
	s0.Root = &efsm.InputBranch{
		Sig: a,
		Then: &efsm.ActNode{
			Act: efsm.Action{Kind: efsm.ActEmit, Sig: o},
			Next: &efsm.DataBranch{
				Expr: cond,
				Then: &efsm.InputBranch{
					Sig:  a,
					Then: &efsm.Leaf{To: s0},
					Else: &efsm.ActNode{Act: efsm.Action{Kind: efsm.ActEmit, Sig: p}, Next: &efsm.Leaf{Terminal: true}},
				},
				Else: &efsm.Leaf{To: s0},
			},
		},
		Else: &efsm.ActNode{Act: efsm.Action{Kind: efsm.ActEmit, Sig: p}, Next: nil},
	}
	return &efsm.Machine{
		Name: "twice", Mod: mod, Inputs: mod.Inputs, Outputs: mod.Outputs,
		States: []*efsm.State{s0}, Initial: s0,
	}
}
