package dataexec

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/kernel"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/sem"
	"repro/internal/source"
)

// env is a simple in-memory Env for tests.
type env struct {
	vars map[*kernel.Var]cval.Value
	sigs map[*kernel.Signal]cval.Value
}

func (e *env) VarValue(v *kernel.Var) (cval.Value, error) {
	if val, ok := e.vars[v]; ok {
		return val, nil
	}
	return cval.Value{}, errNoVar
}

var errNoVar = &noVarError{}

type noVarError struct{}

func (*noVarError) Error() string { return "no such variable" }

func (e *env) SignalValue(s *kernel.Signal) (cval.Value, error) {
	if val, ok := e.sigs[s]; ok {
		return val, nil
	}
	return cval.Value{}, errNoVar
}

// harness compiles a tiny module whose body is data statements working
// on declared variables, then provides an evaluator over them.
type harness struct {
	t    *testing.T
	info *sem.Info
	b    *kernel.Binding
	env  *env
	ev   *Evaluator
	body []ast.Stmt
}

// build parses "decls" (variable declarations) and "code" (statements)
// inside a module wrapper and wires the environment.
func build(t *testing.T, decls, code string) *harness {
	t.Helper()
	src := "typedef unsigned char byte;\n" +
		"int twice(int x) { return x * 2; }\n" +
		"int clampsub(int a, int b) { if (a < b) return 0; return a - b; }\n" +
		"module m(input pure go, output pure done) {\n" + decls +
		"\nwhile (1) { await(go); {" + code + "} emit(done); } }"
	var diags source.DiagList
	expanded := pp.New(&diags, nil).Expand(source.NewFile("t.ecl", src))
	f := parser.ParseFile(expanded, &diags)
	info := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		t.Fatalf("front end:\n%s", diags.String())
	}
	mi := info.Modules["m"]
	b := &kernel.Binding{
		Info:  info,
		Vars:  map[*sem.VarInfo]*kernel.Var{},
		Sigs:  map[*sem.SignalInfo]*kernel.Signal{},
		Label: "m",
	}
	e := &env{vars: map[*kernel.Var]cval.Value{}, sigs: map[*kernel.Signal]cval.Value{}}
	for _, vi := range mi.Vars {
		kv := &kernel.Var{Name: vi.Mangled, Type: vi.Type}
		b.Vars[vi] = kv
		e.vars[kv] = cval.New(vi.Type)
	}
	// Find the inner block with the code.
	// The code block is the second statement of the while body
	// (await(go); { CODE } emit(done);).
	var body []ast.Stmt
	for _, st := range mi.Decl.Body.Stmts {
		w, ok := st.(*ast.While)
		if !ok {
			continue
		}
		wb := w.Body.(*ast.Block)
		body = wb.Stmts[1].(*ast.Block).Stmts
	}
	if body == nil {
		t.Fatal("harness: code block not found")
	}
	return &harness{t: t, info: info, b: b, env: e, ev: New(info, e), body: body}
}

func (h *harness) run() error {
	f := &kernel.DataFunc{Name: "test_data", B: h.b, Body: h.body}
	return h.ev.ExecDataFunc(f)
}

func (h *harness) varInt(name string) int64 {
	h.t.Helper()
	for vi, kv := range h.b.Vars {
		if vi.Name == name {
			return h.env.vars[kv].Int()
		}
	}
	h.t.Fatalf("no variable %q", name)
	return 0
}

func TestArithmetic(t *testing.T) {
	h := build(t, "int a; int b; int c;", `
        a = 7; b = 3;
        c = a * b + a / b - a % b;
    `)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := h.varInt("c"); got != 22 { // 21 + 2 - 1
		t.Errorf("c = %d, want 22", got)
	}
}

func TestUnsignedWrap(t *testing.T) {
	h := build(t, "unsigned int u;", `u = 0; u = u - 1;`)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := uint32(h.varInt("u")); got != 0xFFFFFFFF {
		t.Errorf("u = %#x", got)
	}
}

func TestSignedOverflowWraps(t *testing.T) {
	h := build(t, "int x;", `x = 2147483647; x = x + 1;`)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := h.varInt("x"); got != -2147483648 {
		t.Errorf("x = %d", got)
	}
}

func TestShifts(t *testing.T) {
	h := build(t, "int s; unsigned int u;", `
        s = -8; s = s >> 1;
        u = 0x80000000; u = u >> 4;
    `)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := h.varInt("s"); got != -4 {
		t.Errorf("arithmetic shift: %d", got)
	}
	if got := uint32(h.varInt("u")); got != 0x08000000 {
		t.Errorf("logical shift: %#x", got)
	}
}

func TestDivisionByZero(t *testing.T) {
	h := build(t, "int a;", `a = 1 / 0;`)
	if err := h.run(); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestLoops(t *testing.T) {
	h := build(t, "int i; int sum;", `
        sum = 0;
        for (i = 1; i <= 10; i++) { sum += i; }
        while (sum < 60) { sum++; }
        do { sum++; } while (0);
    `)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := h.varInt("sum"); got != 61 {
		t.Errorf("sum = %d, want 61", got)
	}
}

func TestBreakContinue(t *testing.T) {
	h := build(t, "int i; int n;", `
        n = 0;
        for (i = 0; i < 10; i++) {
            if (i == 3) continue;
            if (i == 6) break;
            n++;
        }
    `)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := h.varInt("n"); got != 5 { // 0,1,2,4,5
		t.Errorf("n = %d, want 5", got)
	}
}

func TestSwitchExec(t *testing.T) {
	h := build(t, "int k; int r;", `
        k = 2; r = 0;
        switch (k) {
        case 1:
            r = 10;
            break;
        case 2:
        case 3:
            r = 20;
            break;
        default:
            r = 30;
        }
    `)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := h.varInt("r"); got != 20 {
		t.Errorf("r = %d, want 20", got)
	}
}

// TestSwitchDefaultFirst pins C's dispatch: a matching case wins over
// a default placed before it, and control falls through clauses
// (empty ones included) until a break.
func TestSwitchDefaultFirst(t *testing.T) {
	for _, tc := range []struct{ k, r int64 }{{1, 1}, {2, 32}, {3, 30}, {4, 500}, {7, 509}} {
		h := build(t, "int k; int r;", fmt.Sprintf(`
        k = %d; r = 0;
        switch (k) {
        default:
            r = 9;
        case 4:
        case 5:
            r = r + 500;
            break;
        case 1:
            r = 1;
            break;
        case 2:
            r = 2;
        case 3:
            r = r + 30;
        }
    `, tc.k))
		if err := h.run(); err != nil {
			t.Fatal(err)
		}
		if got := h.varInt("r"); got != tc.r {
			t.Errorf("k=%d: r = %d, want %d", tc.k, got, tc.r)
		}
	}
}

func TestFunctionCalls(t *testing.T) {
	h := build(t, "int r;", `r = twice(clampsub(3, 5)) + twice(4);`)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := h.varInt("r"); got != 8 {
		t.Errorf("r = %d, want 8", got)
	}
}

func TestArraysAndStructs(t *testing.T) {
	h := build(t, "byte buf[4]; int i; int total;", `
        for (i = 0; i < 4; i++) { buf[i] = i * 3; }
        total = buf[0] + buf[1] + buf[2] + buf[3];
    `)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := h.varInt("total"); got != 18 {
		t.Errorf("total = %d, want 18", got)
	}
}

func TestIndexOutOfRange(t *testing.T) {
	h := build(t, "byte buf[4]; int i;", `i = 9; buf[i] = 1;`)
	if err := h.run(); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestTernaryAndLogical(t *testing.T) {
	h := build(t, "int a; int b;", `
        a = 5;
        b = (a > 3 ? 100 : 200) + (a && 0) + (a || 0);
    `)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := h.varInt("b"); got != 101 {
		t.Errorf("b = %d, want 101", got)
	}
}

func TestRunawayLoopBounded(t *testing.T) {
	h := build(t, "int x;", `x = 1; while (x) { x = 1; }`)
	h.ev.Limits.MaxSteps = 1000
	if err := h.run(); err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("err = %v", err)
	}
}

// Property: the evaluator's signed arithmetic matches Go's int32.
func TestPropertySignedArith(t *testing.T) {
	h := build(t, "int a; int b; int c;", `c = a * b + a - b;`)
	var aVar, bVar *kernel.Var
	for vi, kv := range h.b.Vars {
		switch vi.Name {
		case "a":
			aVar = kv
		case "b":
			bVar = kv
		}
	}
	f := func(a, b int32) bool {
		h.env.vars[aVar].SetInt(int64(a))
		h.env.vars[bVar].SetInt(int64(b))
		if err := h.run(); err != nil {
			return false
		}
		want := int64(a*b + a - b)
		return h.varInt("c") == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEvalBoolOnTilde(t *testing.T) {
	// ~ on bool is logical negation (paper's if (~crc_ok)).
	h := build(t, "bool ok; int r;", `ok = 0; if (~ok) r = 1; else r = 2;`)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	if got := h.varInt("r"); got != 1 {
		t.Errorf("r = %d, want 1", got)
	}
	_ = ctypes.Bool
}
