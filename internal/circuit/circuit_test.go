package circuit

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/cval"
	"repro/internal/efsm"
	"repro/internal/efsm/table"
	"repro/internal/lower"
	"repro/internal/paperex"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/sem"
	"repro/internal/source"
)

func buildEFSM(t *testing.T, src, modName string) *efsm.Machine {
	t.Helper()
	var diags source.DiagList
	expanded := pp.New(&diags, nil).Expand(source.NewFile("test.ecl", src))
	f := parser.ParseFile(expanded, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	info := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("sem errors:\n%s", diags.String())
	}
	res, err := lower.Lower(info, modName, lower.MaximalReactive, &diags)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	m, err := compile.Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func TestSynthesizeABRO(t *testing.T) {
	m := buildEFSM(t, paperex.ABRO, "abro")
	c, err := FromEFSM(m)
	if err != nil {
		t.Fatal(err)
	}
	st := c.CollectStats()
	if st.Registers != len(m.States) {
		t.Errorf("registers = %d, want one per state (%d)", st.Registers, len(m.States))
	}
	if st.Gates == 0 {
		t.Error("no gates synthesized")
	}
	if st.Inputs != 3 || st.Outputs != 1 {
		t.Errorf("ports: %+v", st)
	}
}

// TestCircuitMatchesEFSM co-simulates the netlist against the compiled
// EFSM, run on the table VM, on random input vectors.
func TestCircuitMatchesEFSM(t *testing.T) {
	m := buildEFSM(t, paperex.ABRO, "abro")
	c, err := FromEFSM(m)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(c)
	prog, err := table.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	sw := table.New(prog)
	nIn := len(m.Inputs)
	slots := make([]bool, nIn+len(m.Outputs))
	vals, outs := make([]cval.Value, nIn), make([]cval.Value, len(m.Outputs))
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		present := map[string]bool{}
		for j, sig := range m.Inputs {
			slots[j] = rng.Intn(3) == 0
			if slots[j] {
				present[sig.Name] = true
			}
		}
		hw := sim.Step(present)
		if _, err := sw.Step(slots, vals, outs); err != nil {
			t.Fatal(err)
		}
		swOut := map[string]bool{}
		for j, sig := range m.Outputs {
			if slots[nIn+j] {
				swOut[sig.Name] = true
			}
		}
		for name := range hw {
			if !swOut[name] {
				t.Fatalf("cycle %d: hardware emits %s, software does not", i, name)
			}
		}
		for name := range swOut {
			if !hw[name] {
				t.Fatalf("cycle %d: software emits %s, hardware does not", i, name)
			}
		}
	}
}

func TestRejectDataPath(t *testing.T) {
	m := buildEFSM(t, paperex.Header+paperex.CheckCRC, "checkcrc")
	if _, err := FromEFSM(m); err == nil {
		t.Fatal("expected rejection of a module with a data part")
	} else if !strings.Contains(err.Error(), "datapath") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestReachableStates(t *testing.T) {
	m := buildEFSM(t, paperex.ABRO, "abro")
	c, err := FromEFSM(m)
	if err != nil {
		t.Fatal(err)
	}
	n, complete := c.ReachableStates(10000)
	if !complete {
		t.Fatal("exploration did not complete")
	}
	// One-hot: reachable states are at most the EFSM states (plus the
	// all-zero terminated state when reachable).
	if n < len(m.States) || n > len(m.States)+1 {
		t.Errorf("reachable register states = %d, EFSM states = %d", n, len(m.States))
	}
}

func TestOptimizationFolds(t *testing.T) {
	// A module whose output never fires after optimization still works.
	src := `module m(input pure a, output pure o, output pure never) {
        while (1) { await(a); emit(o); }
    }`
	m := buildEFSM(t, src, "m")
	c, err := FromEFSM(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Outputs["never"].Op != OpConst || c.Outputs["never"].Val {
		t.Error("never-emitted output should fold to constant false")
	}
	removed := c.Sweep()
	_ = removed
	sim := NewSimulator(c)
	sim.Step(nil)
	out := sim.Step(map[string]bool{"a": true})
	if !out["o"] || out["never"] {
		t.Errorf("post-sweep behavior wrong: %v", out)
	}
}

func TestStructuralHashing(t *testing.T) {
	c := &Circuit{Outputs: map[string]*Net{}, hash: map[string]*Net{}}
	a := c.newNet(OpInput)
	b := c.newNet(OpInput)
	g1 := c.And(a, b)
	g2 := c.And(b, a) // commuted: must hash to the same gate
	if g1 != g2 {
		t.Error("commuted AND not shared")
	}
	if c.Not(c.Not(a)) != a {
		t.Error("double negation not folded")
	}
	tr := c.Const(true)
	if c.And(a, tr) != a || c.Or(a, c.Const(false)) != a {
		t.Error("identity folding broken")
	}
	if c.And(a, c.Const(false)).Op != OpConst {
		t.Error("AND with false should fold to false")
	}
}

func TestTerminatingMachineHalts(t *testing.T) {
	src := `module m(input pure a, output pure o) { await(a); emit(o); }`
	m := buildEFSM(t, src, "m")
	c, err := FromEFSM(m)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(c)
	sim.Step(nil)
	out := sim.Step(map[string]bool{"a": true})
	if !out["o"] {
		t.Fatal("o missing")
	}
	// After termination all registers are zero: no further output.
	out = sim.Step(map[string]bool{"a": true})
	if out["o"] {
		t.Fatal("terminated circuit still emits")
	}
}
