package parser

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/paperex"
	"repro/internal/pp"
	"repro/internal/source"
)

// parseSrc preprocesses and parses src, failing the test on any error.
func parseSrc(t *testing.T, src string) *ast.File {
	t.Helper()
	var diags source.DiagList
	expanded := pp.New(&diags, nil).Expand(source.NewFile("test.ecl", src))
	f := ParseFile(expanded, &diags)
	if diags.HasErrors() {
		t.Fatalf("parse errors:\n%s", diags.String())
	}
	return f
}

// parseErr parses src expecting at least one error.
func parseErr(t *testing.T, src string) *source.DiagList {
	t.Helper()
	var diags source.DiagList
	expanded := pp.New(&diags, nil).Expand(source.NewFile("test.ecl", src))
	ParseFile(expanded, &diags)
	if !diags.HasErrors() {
		t.Fatalf("expected parse errors for:\n%s", src)
	}
	return &diags
}

func TestParseTypedefs(t *testing.T) {
	f := parseSrc(t, paperex.Header)
	var names []string
	for _, d := range f.Decls {
		if td, ok := d.(*ast.TypedefDecl); ok {
			names = append(names, td.Name)
		}
	}
	want := "byte packet_view_1_t packet_view_2_t packet_t"
	if strings.Join(names, " ") != want {
		t.Errorf("typedefs = %v, want %q", names, want)
	}
}

func TestParseStructFields(t *testing.T) {
	f := parseSrc(t, paperex.Header)
	td := f.Decls[2].(*ast.TypedefDecl) // packet_view_2_t
	st := td.Type.(*ast.StructType)
	if len(st.Fields) != 3 {
		t.Fatalf("got %d fields, want 3", len(st.Fields))
	}
	wantNames := []string{"header", "data", "crc"}
	for i, fld := range st.Fields {
		if fld.Name != wantNames[i] {
			t.Errorf("field %d = %q, want %q", i, fld.Name, wantNames[i])
		}
		if len(fld.Dims) != 1 {
			t.Errorf("field %q has %d dims, want 1", fld.Name, len(fld.Dims))
		}
	}
}

func TestParseUnion(t *testing.T) {
	f := parseSrc(t, paperex.Header)
	td := f.Decls[3].(*ast.TypedefDecl) // packet_t
	st := td.Type.(*ast.StructType)
	if !st.Union {
		t.Error("packet_t should be a union")
	}
	if len(st.Fields) != 2 || st.Fields[0].Name != "raw" || st.Fields[1].Name != "cooked" {
		t.Errorf("union fields wrong: %+v", st.Fields)
	}
}

func TestParseModuleSignature(t *testing.T) {
	f := parseSrc(t, paperex.Header+paperex.Assemble)
	m := f.Module("assemble")
	if m == nil {
		t.Fatal("module assemble not found")
	}
	if len(m.Params) != 3 {
		t.Fatalf("got %d params, want 3", len(m.Params))
	}
	p0, p1, p2 := m.Params[0], m.Params[1], m.Params[2]
	if p0.Name != "reset" || !p0.Pure || p0.Dir != ast.In {
		t.Errorf("param0: %+v", p0)
	}
	if p1.Name != "in_byte" || p1.Pure || p1.Dir != ast.In {
		t.Errorf("param1: %+v", p1)
	}
	if p2.Name != "outpkt" || p2.Dir != ast.Out {
		t.Errorf("param2: %+v", p2)
	}
}

// findStmt walks the tree depth-first and returns the first statement
// for which pred returns true.
func findStmt(s ast.Stmt, pred func(ast.Stmt) bool) ast.Stmt {
	if s == nil {
		return nil
	}
	if pred(s) {
		return s
	}
	var children []ast.Stmt
	switch s := s.(type) {
	case *ast.Block:
		children = s.Stmts
	case *ast.If:
		children = []ast.Stmt{s.Then, s.Else}
	case *ast.While:
		children = []ast.Stmt{s.Body}
	case *ast.DoWhile:
		children = []ast.Stmt{s.Body}
	case *ast.For:
		children = []ast.Stmt{s.Init, s.Post, s.Body}
	case *ast.Switch:
		for _, c := range s.Cases {
			children = append(children, c.Body...)
		}
	case *ast.Present:
		children = []ast.Stmt{s.Then, s.Else}
	case *ast.DoPreempt:
		children = []ast.Stmt{s.Body, s.Handler}
	case *ast.Par:
		children = s.Branches
	}
	for _, c := range children {
		if c == nil {
			continue
		}
		if found := findStmt(c, pred); found != nil {
			return found
		}
	}
	return nil
}

func TestParseAssembleBody(t *testing.T) {
	f := parseSrc(t, paperex.Header+paperex.Assemble)
	m := f.Module("assemble")
	ab := findStmt(m.Body, func(s ast.Stmt) bool {
		_, ok := s.(*ast.DoPreempt)
		return ok
	})
	if ab == nil {
		t.Fatal("no do/abort found")
	}
	dp := ab.(*ast.DoPreempt)
	if dp.Kind != ast.Strong {
		t.Errorf("kind = %v, want abort", dp.Kind)
	}
	if id, ok := dp.Sig.(*ast.Ident); !ok || id.Name != "reset" {
		t.Errorf("abort signal = %v", ast.ExprString(dp.Sig))
	}
	aw := findStmt(m.Body, func(s ast.Stmt) bool {
		_, ok := s.(*ast.Await)
		return ok
	})
	if aw == nil {
		t.Fatal("no await found")
	}
	em := findStmt(m.Body, func(s ast.Stmt) bool {
		e, ok := s.(*ast.Emit)
		return ok && e.Value != nil
	})
	if em == nil {
		t.Fatal("no emit_v found")
	}
	if em.(*ast.Emit).Signal.Name != "outpkt" {
		t.Errorf("emit signal = %q", em.(*ast.Emit).Signal.Name)
	}
}

func TestParseCheckCRCCommaFor(t *testing.T) {
	f := parseSrc(t, paperex.Header+paperex.CheckCRC)
	m := f.Module("checkcrc")
	fs := findStmt(m.Body, func(s ast.Stmt) bool {
		_, ok := s.(*ast.For)
		return ok
	})
	if fs == nil {
		t.Fatal("no for loop found")
	}
	init := fs.(*ast.For).Init.(*ast.ExprStmt)
	// "i = 0, crc = 0" folds into a comma Binary.
	if _, ok := init.X.(*ast.Binary); !ok {
		t.Errorf("for-init is %T, want comma Binary", init.X)
	}
}

func TestParseProcHdrParAndLocalSignal(t *testing.T) {
	f := parseSrc(t, paperex.Header+paperex.ProcHdr)
	m := f.Module("prochdr")
	sd := findStmt(m.Body, func(s ast.Stmt) bool {
		_, ok := s.(*ast.SignalDecl)
		return ok
	})
	if sd == nil {
		t.Fatal("no local signal decl")
	}
	if d := sd.(*ast.SignalDecl); d.Name != "kill_check" || !d.Pure {
		t.Errorf("signal decl: %+v", d)
	}
	ps := findStmt(m.Body, func(s ast.Stmt) bool {
		_, ok := s.(*ast.Par)
		return ok
	})
	if ps == nil {
		t.Fatal("no par found")
	}
	if n := len(ps.(*ast.Par).Branches); n != 2 {
		t.Errorf("par has %d branches, want 2", n)
	}
}

func TestParseTopLevelInstantiations(t *testing.T) {
	f := parseSrc(t, paperex.Stack)
	m := f.Module("toplevel")
	if m == nil {
		t.Fatal("toplevel not found")
	}
	ps := findStmt(m.Body, func(s ast.Stmt) bool {
		_, ok := s.(*ast.Par)
		return ok
	})
	if ps == nil {
		t.Fatal("no par in toplevel")
	}
	par := ps.(*ast.Par)
	if len(par.Branches) != 3 {
		t.Fatalf("par has %d branches, want 3", len(par.Branches))
	}
	wantCallees := []string{"assemble", "checkcrc", "prochdr"}
	for i, b := range par.Branches {
		es, ok := b.(*ast.ExprStmt)
		if !ok {
			t.Fatalf("branch %d is %T", i, b)
		}
		call, ok := es.X.(*ast.Call)
		if !ok || call.Fun.Name != wantCallees[i] {
			t.Errorf("branch %d: got %s", i, ast.ExprString(es.X))
		}
	}
}

func TestParseBufferExample(t *testing.T) {
	f := parseSrc(t, paperex.Buffer)
	for _, name := range []string{"recordctl", "playctl", "levelmon", "bufferctl"} {
		if f.Module(name) == nil {
			t.Errorf("module %q not found", name)
		}
	}
}

func TestParseABRO(t *testing.T) {
	f := parseSrc(t, paperex.ABRO)
	if f.Module("abro") == nil {
		t.Fatal("abro not found")
	}
}

func TestParseWeakAbortHandle(t *testing.T) {
	f := parseSrc(t, paperex.RunnerStop)
	m := f.Module("runner")
	dp := findStmt(m.Body, func(s ast.Stmt) bool {
		d, ok := s.(*ast.DoPreempt)
		return ok && d.Kind == ast.Weak
	})
	if dp == nil {
		t.Fatal("no weak_abort found")
	}
	if dp.(*ast.DoPreempt).Handler == nil {
		t.Error("handle clause missing")
	}
}

func TestParseSuspend(t *testing.T) {
	src := `module m(input pure s, input pure t, output pure o) {
        do {
            while (1) { emit(o); await(t); }
        } suspend (s);
    }`
	f := parseSrc(t, src)
	m := f.Module("m")
	dp := findStmt(m.Body, func(s ast.Stmt) bool {
		d, ok := s.(*ast.DoPreempt)
		return ok && d.Kind == ast.Susp
	})
	if dp == nil {
		t.Fatal("no suspend found")
	}
}

func TestSuspendHandleRejected(t *testing.T) {
	parseErr(t, `module m(input pure s, output pure o) {
        do { halt(); } suspend (s) handle { emit(o); }
    }`)
}

func TestParseSignalExprOps(t *testing.T) {
	src := `module m(input pure a, input pure b, input pure c, output pure o) {
        await (a & b | ~c);
        emit (o);
    }`
	f := parseSrc(t, src)
	m := f.Module("m")
	aw := findStmt(m.Body, func(s ast.Stmt) bool {
		_, ok := s.(*ast.Await)
		return ok
	}).(*ast.Await)
	if got := ast.ExprString(aw.Sig); got != "((a & b) | ~c)" {
		t.Errorf("sigexpr = %q", got)
	}
}

func TestParseEmptyAwait(t *testing.T) {
	src := `module m(input pure a, output pure o) { await(); emit(o); }`
	f := parseSrc(t, src)
	aw := findStmt(f.Module("m").Body, func(s ast.Stmt) bool {
		_, ok := s.(*ast.Await)
		return ok
	}).(*ast.Await)
	if aw.Sig != nil {
		t.Error("empty await should have nil Sig")
	}
}

func TestParseCastExpr(t *testing.T) {
	src := paperex.Header + `module m(input packet_t p, output bool ok) {
        await(p);
        emit_v(ok, 1 == (int) p.cooked.crc);
    }`
	f := parseSrc(t, src)
	em := findStmt(f.Module("m").Body, func(s ast.Stmt) bool {
		e, ok := s.(*ast.Emit)
		return ok && e.Value != nil
	}).(*ast.Emit)
	bin := em.Value.(*ast.Binary)
	if _, ok := bin.Y.(*ast.Cast); !ok {
		t.Errorf("rhs = %T, want Cast", bin.Y)
	}
}

func TestParsePrecedence(t *testing.T) {
	src := `module m(input pure a, output bool o) {
        int x;
        x = 1 + 2 * 3;
        x = (1 ^ 2) << 1;
        x = 1 < 2 == 0;
        emit(o);
    }`
	f := parseSrc(t, src)
	var got []string
	findStmt(f.Module("m").Body, func(s ast.Stmt) bool {
		if es, ok := s.(*ast.ExprStmt); ok {
			got = append(got, ast.ExprString(es.X))
		}
		return false
	})
	want := []string{
		"x = (1 + (2 * 3))",
		"x = ((1 ^ 2) << 1)",
		"x = ((1 < 2) == 0)",
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("expr %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestParseSwitchCaseGroups(t *testing.T) {
	src := `typedef unsigned char byte;
    module m(input byte b, output pure o) {
        int x;
        while (1) {
            await (b);
            switch (b) {
            case 1:
            case 2:
                x = 1;
                break;
            default:
                x = 0;
            }
            if (x) emit(o);
        }
    }`
	f := parseSrc(t, src)
	sw := findStmt(f.Module("m").Body, func(s ast.Stmt) bool {
		_, ok := s.(*ast.Switch)
		return ok
	}).(*ast.Switch)
	if len(sw.Cases) != 2 {
		t.Fatalf("got %d cases, want 2", len(sw.Cases))
	}
	if len(sw.Cases[0].Values) != 2 {
		t.Errorf("first case has %d values, want 2 (grouped)", len(sw.Cases[0].Values))
	}
	if sw.Cases[1].Values != nil {
		t.Error("second case should be default")
	}
}

// TestParseSwitchDefaultAdjacentToCase keeps an empty default as its
// own clause: "default: case 1:" and "case 1: default:" each make two
// clauses (C enters the shared body from either label).
func TestParseSwitchDefaultAdjacentToCase(t *testing.T) {
	for _, tc := range []struct {
		labels      string
		defaultAt   int
		caseValueAt int
	}{
		{"default: case 1:", 0, 1},
		{"case 1: default:", 1, 0},
	} {
		src := `int f(int v) {
            int r = 0;
            switch (v) {
            ` + tc.labels + `
                r = 7;
                break;
            case 2:
                r = 2;
            }
            return r;
        }
        module m(input pure a, output pure o) { await(a); emit(o); }`
		f := parseSrc(t, src)
		var sw *ast.Switch
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				sw, _ = findStmt(fd.Body, func(s ast.Stmt) bool {
					_, ok := s.(*ast.Switch)
					return ok
				}).(*ast.Switch)
			}
		}
		if sw == nil || len(sw.Cases) != 3 {
			t.Fatalf("%q: want 3 clauses, got %+v", tc.labels, sw)
		}
		if sw.Cases[tc.defaultAt].Values != nil {
			t.Errorf("%q: clause %d should be the default", tc.labels, tc.defaultAt)
		}
		if c := sw.Cases[tc.caseValueAt]; len(c.Values) != 1 {
			t.Errorf("%q: clause %d should be case 1, has %d values", tc.labels, tc.caseValueAt, len(c.Values))
		}
		if len(sw.Cases[0].Body) != 0 || len(sw.Cases[1].Body) != 2 {
			t.Errorf("%q: the first clause must be empty and share the second's body", tc.labels)
		}
	}
}

func TestParseErrorRecovery(t *testing.T) {
	// A bad statement must not prevent later modules from parsing.
	src := `module bad(input pure a, output pure o) { emit(); }
    module good(input pure a, output pure o) { await(a); emit(o); }`
	var diags source.DiagList
	expanded := pp.New(&diags, nil).Expand(source.NewFile("test.ecl", src))
	f := ParseFile(expanded, &diags)
	if !diags.HasErrors() {
		t.Fatal("expected errors from bad module")
	}
	if f.Module("good") == nil {
		t.Error("recovery failed: module good missing")
	}
}

func TestParseUnknownTypeName(t *testing.T) {
	parseErr(t, `module m(input wibble w, output pure o) { halt(); }`)
}

func TestRoundTripPrintParsePrint(t *testing.T) {
	sources := map[string]string{
		"stack":  paperex.Stack,
		"buffer": paperex.Buffer,
		"abro":   paperex.ABRO,
		"runner": paperex.RunnerStop,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			f1 := parseSrc(t, src)
			printed1 := ast.String(f1)
			// The printed form must itself parse cleanly...
			var diags source.DiagList
			f2 := ParseFile(source.NewFile("printed.ecl", printed1), &diags)
			if diags.HasErrors() {
				t.Fatalf("printed source does not re-parse:\n%s\n--- source:\n%s", diags.String(), printed1)
			}
			// ... and printing again must be a fixed point.
			printed2 := ast.String(f2)
			if printed1 != printed2 {
				t.Errorf("print/parse/print not stable:\n--- first:\n%s\n--- second:\n%s", printed1, printed2)
			}
		})
	}
}

func TestParseGlobalsAndFunctions(t *testing.T) {
	src := `typedef unsigned char byte;
    int table[4];
    int add2(int a, int b) { return a + b; }
    module m(input byte x, output pure o) {
        while (1) { await (x); if (add2(x, 1) > 3) emit(o); }
    }`
	f := parseSrc(t, src)
	var haveVar, haveFunc bool
	for _, d := range f.Decls {
		switch d.(type) {
		case *ast.GlobalVarDecl:
			haveVar = true
		case *ast.FuncDecl:
			haveFunc = true
		}
	}
	if !haveVar || !haveFunc {
		t.Errorf("haveVar=%v haveFunc=%v", haveVar, haveFunc)
	}
}
