package lower

import (
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/paperex"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/sem"
	"repro/internal/source"
)

func lowerSrc(t *testing.T, src, modName string, pol Policy) *Result {
	t.Helper()
	var diags source.DiagList
	expanded := pp.New(&diags, nil).Expand(source.NewFile("test.ecl", src))
	f := parser.ParseFile(expanded, &diags)
	info := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front end:\n%s", diags.String())
	}
	res, err := Lower(info, modName, pol, &diags)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return res
}

func count(root kernel.Stmt, pred func(kernel.Stmt) bool) int {
	n := 0
	kernel.Walk(root, func(s kernel.Stmt) {
		if pred(s) {
			n++
		}
	})
	return n
}

func TestDataLoopExtractedBothPolicies(t *testing.T) {
	for _, pol := range []Policy{MaximalReactive, MinimalReactive} {
		res := lowerSrc(t, paperex.Header+paperex.CheckCRC, "checkcrc", pol)
		if len(res.Module.Funcs) == 0 {
			t.Errorf("policy %v: CRC data loop not extracted", pol)
		}
	}
}

func TestReactiveLoopStaysInKernel(t *testing.T) {
	res := lowerSrc(t, paperex.Header+paperex.Assemble, "assemble", MaximalReactive)
	if len(res.Module.Funcs) != 0 {
		t.Errorf("assemble's await-loop must not be extracted; got %d funcs", len(res.Module.Funcs))
	}
	if n := count(res.Module.Body, func(s kernel.Stmt) bool {
		_, ok := s.(*kernel.Await)
		return ok
	}); n != 1 {
		t.Errorf("awaits = %d, want 1", n)
	}
}

func TestMinimalPolicyExtractsRuns(t *testing.T) {
	resMax := lowerSrc(t, paperex.Buffer, "levelmon", MaximalReactive)
	resMin := lowerSrc(t, paperex.Buffer, "levelmon", MinimalReactive)
	if len(resMin.Module.Funcs) <= len(resMax.Module.Funcs) {
		t.Errorf("minimal policy should extract more runs: max=%d min=%d",
			len(resMax.Module.Funcs), len(resMin.Module.Funcs))
	}
	ifMax := count(resMax.Module.Body, func(s kernel.Stmt) bool { _, ok := s.(*kernel.IfData); return ok })
	ifMin := count(resMin.Module.Body, func(s kernel.Stmt) bool { _, ok := s.(*kernel.IfData); return ok })
	if ifMin >= ifMax {
		t.Errorf("minimal policy should keep fewer IfData nodes: max=%d min=%d", ifMax, ifMin)
	}
}

func TestInliningCreatesPerInstanceState(t *testing.T) {
	src := `module child(input pure i, output pure o) {
        int cnt;
        while (1) { await(i); cnt = cnt + 1; if (cnt == 2) emit(o); }
    }
    module top(input pure a, input pure b, output pure oa, output pure ob) {
        par {
            child(a, oa);
            child(b, ob);
        }
    }`
	res := lowerSrc(t, src, "top", MaximalReactive)
	names := map[string]bool{}
	for _, v := range res.Module.Vars {
		names[v.Name] = true
	}
	if len(res.Module.Vars) != 2 {
		t.Fatalf("vars = %v, want two per-instance counters", res.Module.Vars)
	}
	for n := range names {
		if !strings.Contains(n, "child") {
			t.Errorf("var %q lacks instance qualification", n)
		}
	}
}

func TestStackLowering(t *testing.T) {
	res := lowerSrc(t, paperex.Stack, "toplevel", MaximalReactive)
	if len(res.Module.Inputs) != 2 || len(res.Module.Outputs) != 1 {
		t.Errorf("interface: %d in, %d out", len(res.Module.Inputs), len(res.Module.Outputs))
	}
	// Locals: packet, crc_ok, and prochdr's kill_check.
	if len(res.Module.Locals) != 3 {
		t.Errorf("locals = %d, want 3", len(res.Module.Locals))
	}
	if err := res.Module.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
	st := kernel.CollectStats(res.Module)
	if st.Pars != 2 {
		t.Errorf("pars = %d, want 2 (toplevel + prochdr)", st.Pars)
	}
}

func TestBreakContinueLowering(t *testing.T) {
	src := `module m(input pure tick, input pure stop, output pure o) {
        int i;
        while (1) {
            await (tick);
            for (i = 0; i < 10; i++) {
                await (tick);
                present (stop) break;
                if (i == 5) continue;
                emit (o);
            }
        }
    }`
	res := lowerSrc(t, src, "m", MaximalReactive)
	exits := count(res.Module.Body, func(s kernel.Stmt) bool { _, ok := s.(*kernel.Exit); return ok })
	if exits < 3 {
		// break, continue, plus the for-loop's own bound check.
		t.Errorf("exits = %d, want >= 3", exits)
	}
	if err := res.Module.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestSwitchLowering(t *testing.T) {
	src := `typedef unsigned char byte;
    module m(input byte b, output pure lo, output pure hi) {
        while (1) {
            await (b);
            switch (b) {
            case 1:
            case 2:
                emit (lo);
                break;
            default:
                emit (hi);
            }
        }
    }`
	res := lowerSrc(t, src, "m", MaximalReactive)
	if err := res.Module.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// The tag is evaluated once into a scratch variable.
	found := false
	for _, v := range res.Module.Vars {
		if strings.Contains(v.Name, "swtag") {
			found = true
		}
	}
	if !found {
		t.Error("switch tag scratch variable missing")
	}
}

func TestSwitchFallthroughRejected(t *testing.T) {
	src := `typedef unsigned char byte;
    module m(input byte b, output pure o) {
        while (1) {
            await (b);
            switch (b) {
            case 1:
                emit (o);
            case 2:
                emit (o);
                break;
            }
        }
    }`
	var diags source.DiagList
	expanded := pp.New(&diags, nil).Expand(source.NewFile("t.ecl", src))
	f := parser.ParseFile(expanded, &diags)
	info := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front end: %s", diags.String())
	}
	if _, err := Lower(info, "m", MaximalReactive, &diags); err == nil {
		t.Fatal("fallthrough in reactive switch must be rejected")
	}
}

// TestSwitchSharedClauseRejected: in a reactive switch an empty
// non-final clause falls through into the next one, which the if-chain
// lowering cannot express, so it gets the fallthrough diagnostic
// rather than silently doing nothing for its label.
func TestSwitchSharedClauseRejected(t *testing.T) {
	for _, labels := range []string{"case 1: default:", "default: case 1:"} {
		src := `module m(input int v, output int o) {
            int r;
            while (1) {
                await (v);
                switch (v) {
                case 0:
                    r = 0;
                    break;
                ` + labels + `
                    r = 7;
                    break;
                }
                emit_v (o, r);
            }
        }`
		var diags source.DiagList
		expanded := pp.New(&diags, nil).Expand(source.NewFile("t.ecl", src))
		f := parser.ParseFile(expanded, &diags)
		info := sem.Analyze(f, &diags)
		if diags.HasErrors() {
			t.Fatalf("front end: %s", diags.String())
		}
		if _, err := Lower(info, "m", MaximalReactive, &diags); err == nil {
			t.Errorf("%q: shared clause in a reactive switch must be rejected", labels)
		} else if !strings.Contains(diags.String(), "switch case must end with break") {
			t.Errorf("%q: want the fallthrough diagnostic, got:\n%s", labels, diags.String())
		}
	}
}

func TestEsterelArtifactMentionsDataCall(t *testing.T) {
	res := lowerSrc(t, paperex.Header+paperex.CheckCRC, "checkcrc", MaximalReactive)
	text := kernel.EsterelString(res.Module)
	if !strings.Contains(text, "call checkcrc_data") {
		t.Errorf("artifact missing extracted call:\n%s", text)
	}
}
