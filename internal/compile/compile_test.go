package compile

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/efsm"
	"repro/internal/efsm/table"
	"repro/internal/interp"
	"repro/internal/kernel"
	"repro/internal/lower"
	"repro/internal/paperex"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/sem"
	"repro/internal/source"
)

func lowerSrc(t *testing.T, src, modName string, pol lower.Policy) *lower.Result {
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
	res, err := lower.Lower(info, modName, pol, &diags)
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, diags.String())
	}
	return res
}

func compileSrc(t *testing.T, src, modName string, pol lower.Policy) *efsm.Machine {
	t.Helper()
	res := lowerSrc(t, src, modName, pol)
	m, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func TestCompileABROShape(t *testing.T) {
	m := compileSrc(t, paperex.ABRO, "abro", lower.MaximalReactive)
	st := m.CollectStats()
	// Boot + {waiting A,B} + {waiting A} + {waiting B} + {halted}.
	if st.States < 4 || st.States > 6 {
		t.Errorf("ABRO has %d states, expected 4-6\n%s", st.States, m.Dot())
	}
	if st.Leaves == 0 || st.Branches == 0 {
		t.Errorf("degenerate machine: %+v", st)
	}
	min, merged := efsm.Minimize(m)
	if min.CollectStats().States > st.States {
		t.Error("minimization grew the machine")
	}
	_ = merged
}

func TestCompileTerminatingModule(t *testing.T) {
	m := compileSrc(t, `module m(input pure a, output pure o) { await(a); emit(o); }`,
		"m", lower.MaximalReactive)
	foundTerm := false
	for _, s := range m.States {
		for _, tr := range m.Transitions(s) {
			if tr.Term {
				foundTerm = true
			}
		}
	}
	if !foundTerm {
		t.Error("no terminal transition in a terminating module")
	}
}

// tableRun executes a compiled EFSM on the table VM with kernel-signal
// keyed I/O, the shape the co-simulations compare against the
// interpreter.
type tableRun struct {
	em      *efsm.Machine
	m       *table.Machine
	present []bool
	in, out []cval.Value
}

func newTableRun(t *testing.T, em *efsm.Machine) *tableRun {
	t.Helper()
	p, err := table.Compile(em)
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	r := &tableRun{
		em:      em,
		m:       table.New(p),
		present: make([]bool, len(em.Inputs)+len(em.Outputs)),
		in:      make([]cval.Value, len(em.Inputs)),
		out:     make([]cval.Value, len(em.Outputs)),
	}
	for j, sig := range em.Outputs {
		if !sig.Pure && sig.Type != nil {
			r.out[j] = cval.New(sig.Type)
		}
	}
	return r
}

// step runs one reaction and returns the emitted outputs with their
// values, and whether the machine terminated.
func (r *tableRun) step(in map[*kernel.Signal]cval.Value) (map[*kernel.Signal]cval.Value, bool, error) {
	for i, sig := range r.em.Inputs {
		r.in[i], r.present[i] = in[sig]
	}
	done, err := r.m.Step(r.present, r.in, r.out)
	if err != nil {
		return nil, false, err
	}
	outs := map[*kernel.Signal]cval.Value{}
	for j, sig := range r.em.Outputs {
		if r.present[len(r.in)+j] {
			outs[sig] = r.out[j].Clone()
		}
	}
	return outs, done, nil
}

// cosim drives the interpreter and the compiled EFSM with the same
// random input sequence and requires identical emitted outputs (names
// and values) at every instant.
func cosim(t *testing.T, src, modName string, pol lower.Policy, instants int, seed int64) {
	t.Helper()
	res := lowerSrc(t, src, modName, pol)
	ref := interp.NewMachine(res.Module, res.Info)
	em, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rt := newTableRun(t, em)
	rng := rand.New(rand.NewSource(seed))

	for i := 0; i < instants; i++ {
		in := interp.Inputs{}
		rin := map[*kernel.Signal]cval.Value{}
		for _, sig := range res.Module.Inputs {
			if rng.Intn(3) != 0 {
				continue // each input present with probability 1/3
			}
			var v cval.Value
			if !sig.Pure {
				v = cval.FromInt(sig.Type, int64(rng.Intn(256)))
			}
			in[sig] = v
			rin[sig] = v
		}
		rr, err := ref.React(in)
		if err != nil {
			t.Fatalf("instant %d: interp: %v", i, err)
		}
		souts, sdone, err := rt.step(rin)
		if err != nil {
			t.Fatalf("instant %d: efsm: %v", i, err)
		}
		refOut := outputsString(rr.Outputs)
		efsmOut := outputsString(souts)
		if refOut != efsmOut {
			t.Fatalf("instant %d diverged:\n interp: %s\n efsm:   %s", i, refOut, efsmOut)
		}
		if rr.Terminated != sdone {
			t.Fatalf("instant %d: termination diverged (interp %v, efsm %v)", i, rr.Terminated, sdone)
		}
		if rr.Terminated {
			break
		}
	}
}

func outputsString(out map[*kernel.Signal]cval.Value) string {
	var parts []string
	for sig, v := range out {
		s := sig.Name
		if v.IsValid() {
			s += "=" + v.String()
		}
		parts = append(parts, s)
	}
	// order-insensitive compare
	for i := 0; i < len(parts); i++ {
		for j := i + 1; j < len(parts); j++ {
			if parts[j] < parts[i] {
				parts[i], parts[j] = parts[j], parts[i]
			}
		}
	}
	return strings.Join(parts, ",")
}

func TestCosimABRO(t *testing.T) {
	cosim(t, paperex.ABRO, "abro", lower.MaximalReactive, 200, 1)
}

func TestCosimRunner(t *testing.T) {
	cosim(t, paperex.RunnerStop, "runner", lower.MaximalReactive, 200, 2)
}

func TestCosimCounter(t *testing.T) {
	src := `module m(input pure tick, input pure rst, output pure fire) {
        int cnt;
        while (1) {
            do {
                for (cnt = 0; cnt < 5; cnt++) { await(tick); }
                emit(fire);
                halt();
            } abort (rst);
        }
    }`
	for _, pol := range []lower.Policy{lower.MaximalReactive, lower.MinimalReactive} {
		cosim(t, src, "m", pol, 300, 3)
	}
}

func TestCosimValued(t *testing.T) {
	src := `typedef unsigned char byte;
    module m(input byte b, output byte doubled, output pure big) {
        while (1) {
            await (b);
            emit_v (doubled, b * 2);
            if (b > 128) emit (big);
        }
    }`
	cosim(t, src, "m", lower.MaximalReactive, 300, 4)
}

func TestCosimSuspend(t *testing.T) {
	src := `module m(input pure hold, input pure tick, output pure beat) {
        do {
            while (1) { await (tick); emit(beat); }
        } suspend (hold);
    }`
	cosim(t, src, "m", lower.MaximalReactive, 300, 5)
}

func TestCosimPresentElse(t *testing.T) {
	src := `module m(input pure tick, input pure x, output pure yes, output pure no) {
        while (1) {
            await (tick);
            present (x) emit(yes); else emit(no);
        }
    }`
	cosim(t, src, "m", lower.MaximalReactive, 200, 6)
}

func TestCosimStack(t *testing.T) {
	for _, pol := range []lower.Policy{lower.MaximalReactive, lower.MinimalReactive} {
		cosim(t, paperex.Stack, "toplevel", pol, 400, 7)
	}
}

func TestCosimBuffer(t *testing.T) {
	cosim(t, paperex.Buffer, "bufferctl", lower.MaximalReactive, 300, 8)
}

// TestCosimStackPackets drives the EFSM with real packets and checks
// addr_match appears exactly for good ones.
func TestCosimStackPackets(t *testing.T) {
	res := lowerSrc(t, paperex.Stack, "toplevel", lower.MaximalReactive)
	em, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rt := newTableRun(t, em)
	inByte := res.Module.Signal("in_byte")
	if _, _, err := rt.step(nil); err != nil {
		t.Fatal(err)
	}
	run := func(good bool) bool {
		pkt := paperex.MakePacket(good)
		match := false
		for i := 0; i < paperex.PktSize; i++ {
			outs, _, err := rt.step(map[*kernel.Signal]cval.Value{
				inByte: cval.FromInt(ctypes.UChar, int64(pkt[i])),
			})
			if err != nil {
				t.Fatalf("byte %d: %v", i, err)
			}
			for s := range outs {
				if s.Name == "addr_match" {
					match = true
				}
			}
		}
		for i := 0; i < paperex.HdrSize+4; i++ {
			outs, _, err := rt.step(nil)
			if err != nil {
				t.Fatal(err)
			}
			for s := range outs {
				if s.Name == "addr_match" {
					match = true
				}
			}
		}
		return match
	}
	if !run(true) {
		t.Error("good packet: addr_match missing")
	}
	if run(false) {
		t.Error("bad packet: addr_match emitted")
	}
	if !run(true) {
		t.Error("second good packet: addr_match missing")
	}
}

func TestMinimizePreservesBehavior(t *testing.T) {
	res := lowerSrc(t, paperex.ABRO, "abro", lower.MaximalReactive)
	em, err := Compile(res)
	if err != nil {
		t.Fatal(err)
	}
	min, _ := efsm.Minimize(em)
	rt1 := newTableRun(t, em)
	rt2 := newTableRun(t, min)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		in := map[*kernel.Signal]cval.Value{}
		for _, sig := range em.Inputs {
			if rng.Intn(3) == 0 {
				in[sig] = cval.Value{}
			}
		}
		o1, _, err := rt1.step(in)
		if err != nil {
			t.Fatal(err)
		}
		o2, _, err := rt2.step(in)
		if err != nil {
			t.Fatal(err)
		}
		if outputsString(o1) != outputsString(o2) {
			t.Fatalf("instant %d: minimized machine diverged", i)
		}
	}
}

func TestDotOutput(t *testing.T) {
	m := compileSrc(t, paperex.ABRO, "abro", lower.MaximalReactive)
	dot := m.Dot()
	for _, want := range []string{"digraph", "init ->", "emit O"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestStateLimit(t *testing.T) {
	res := lowerSrc(t, paperex.ABRO, "abro", lower.MaximalReactive)
	_, err := CompileWith(res, Options{MaxStates: 1})
	if err == nil || !strings.Contains(err.Error(), "states") {
		t.Errorf("expected state-limit error, got %v", err)
	}
}

// The splitter policy must not change observable behavior, only the
// machine's shape: minimal extraction yields fewer data branches.
func TestPolicyChangesShapeNotBehavior(t *testing.T) {
	src := paperex.Buffer
	resMax := lowerSrc(t, src, "levelmon", lower.MaximalReactive)
	resMin := lowerSrc(t, src, "levelmon", lower.MinimalReactive)
	mMax, err := Compile(resMax)
	if err != nil {
		t.Fatal(err)
	}
	mMin, err := Compile(resMin)
	if err != nil {
		t.Fatal(err)
	}
	stMax, stMin := mMax.CollectStats(), mMin.CollectStats()
	if stMin.DataBranches >= stMax.DataBranches {
		t.Errorf("minimal policy should have fewer data branches: max=%d min=%d",
			stMax.DataBranches, stMin.DataBranches)
	}
}

// TestConstEnvMissAllocatesNothing: symbolic evaluation tries a
// constant read for every data guard and assignment of every EFSM
// synthesis, and most reads miss; a miss must not build an error value
// nothing reads.
func TestConstEnvMissAllocatesNothing(t *testing.T) {
	env := constEnv{&compiler{consts: map[*kernel.Var]cval.Value{}}}
	v := &kernel.Var{Name: "acc"}
	s := &kernel.Signal{Name: "req"}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := env.VarValue(v); err == nil {
			t.Fatal("non-constant variable read as constant")
		}
		if _, err := env.SignalValue(s); err == nil {
			t.Fatal("signal value read at compile time")
		}
	}); allocs != 0 {
		t.Errorf("a non-constant read allocates %.0f times, want 0", allocs)
	}
}
