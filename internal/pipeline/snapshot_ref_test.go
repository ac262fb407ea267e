package pipeline

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/eclgen"
	"repro/internal/kernel"
	"repro/internal/lower"
	"repro/internal/sem"
	"repro/internal/source"
)

// The reference encoder of the lowered snapshot: it builds the lowSnap
// tree that encoding/json then marshals. appendLowered must write
// exactly json.Marshal(buildLowSnap(low, bodies)), error for error;
// TestLoweredAppenderMatchesReference and FuzzSnapshotRoundTrip hold it
// to that.

func buildLowSnap(low *lower.Result, includeBodies bool) (*lowSnap, error) {
	mod := low.Module
	enc := &lowEncoder{
		mod:   mod,
		sigs:  make(map[*kernel.Signal]string),
		names: make(map[string]*kernel.Signal),
	}
	for _, s := range mod.Signals() {
		if prev, ok := enc.names[s.Name]; ok && prev != s {
			return nil, fmt.Errorf("pipeline: signal name %q is not unique; module not snapshotable", s.Name)
		}
		enc.names[s.Name] = s
		enc.sigs[s] = s.Name
	}
	snap := &lowSnap{
		V:      snapCodecVersion,
		Module: mod.Name,
		Policy: int(low.Policy),
	}
	if low.Info != nil {
		for name := range low.Info.Types {
			snap.Typedefs = append(snap.Typedefs, name)
		}
		sort.Strings(snap.Typedefs)
	}
	for _, s := range mod.Inputs {
		snap.Inputs = append(snap.Inputs, sigSnapOf(s))
	}
	for _, s := range mod.Outputs {
		snap.Outputs = append(snap.Outputs, sigSnapOf(s))
	}
	for _, s := range mod.Locals {
		snap.Locals = append(snap.Locals, sigSnapOf(s))
	}
	for _, v := range mod.Vars {
		snap.Vars = append(snap.Vars, varSnap{Name: v.Name, Type: typeSnapOf(v.Type)})
	}
	for _, f := range mod.Funcs {
		fs := funcSnap{Name: f.Name, Label: f.B.Label}
		if includeBodies {
			var lines []string
			for _, st := range f.Body {
				lines = append(lines, ast.String(st))
			}
			fs.Body = strings.Join(lines, "\n")
		}
		snap.Funcs = append(snap.Funcs, fs)
	}
	body, err := enc.stmt(mod.Body)
	if err != nil {
		return nil, err
	}
	snap.Body = body
	return snap, nil
}

func sigSnapOf(s *kernel.Signal) sigSnap {
	return sigSnap{Name: s.Name, Pure: s.Pure, Type: typeSnapOf(s.Type)}
}

func typeSnapOf(t ctypes.Type) *typeSnap {
	if t == nil {
		return nil
	}
	return &typeSnap{S: t.String(), K: int(t.Kind()), Size: t.Size(), Align: t.Align()}
}

type lowEncoder struct {
	mod   *kernel.Module
	sigs  map[*kernel.Signal]string
	names map[string]*kernel.Signal
}

func (e *lowEncoder) sigName(s *kernel.Signal) (string, error) {
	name, ok := e.sigs[s]
	if !ok {
		return "", fmt.Errorf("pipeline: signal %q not declared in module", s.Name)
	}
	return name, nil
}

func exprText(x kernel.Expr) *exprTextSnap {
	label := ""
	if x.B != nil {
		label = x.B.Label
	}
	return &exprTextSnap{T: ast.ExprString(x.E), L: label}
}

func (e *lowEncoder) sigx(x kernel.SigExpr) (*sigxSnap, error) {
	switch x := x.(type) {
	case *kernel.SigRef:
		name, err := e.sigName(x.Sig)
		if err != nil {
			return nil, err
		}
		return &sigxSnap{K: "ref", Sig: name}, nil
	case *kernel.SigNot:
		inner, err := e.sigx(x.X)
		if err != nil {
			return nil, err
		}
		return &sigxSnap{K: "not", X: inner}, nil
	case *kernel.SigAnd:
		a, err := e.sigx(x.X)
		if err != nil {
			return nil, err
		}
		b, err := e.sigx(x.Y)
		if err != nil {
			return nil, err
		}
		return &sigxSnap{K: "and", X: a, Y: b}, nil
	case *kernel.SigOr:
		a, err := e.sigx(x.X)
		if err != nil {
			return nil, err
		}
		b, err := e.sigx(x.Y)
		if err != nil {
			return nil, err
		}
		return &sigxSnap{K: "or", X: a, Y: b}, nil
	}
	return nil, fmt.Errorf("pipeline: unknown signal expression %T", x)
}

func (e *lowEncoder) kids(list ...kernel.Stmt) ([]*stmtSnap, error) {
	out := make([]*stmtSnap, len(list))
	for i, s := range list {
		if s == nil {
			continue
		}
		snap, err := e.stmt(s)
		if err != nil {
			return nil, err
		}
		out[i] = snap
	}
	return out, nil
}

func (e *lowEncoder) stmt(s kernel.Stmt) (*stmtSnap, error) {
	switch s := s.(type) {
	case *kernel.Nothing:
		return &stmtSnap{K: "nothing"}, nil
	case *kernel.Pause:
		return &stmtSnap{K: "pause"}, nil
	case *kernel.Halt:
		return &stmtSnap{K: "halt"}, nil
	case *kernel.Await:
		sx, err := e.sigx(s.Sig)
		if err != nil {
			return nil, err
		}
		return &stmtSnap{K: "await", SigX: sx}, nil
	case *kernel.Emit:
		name, err := e.sigName(s.Sig)
		if err != nil {
			return nil, err
		}
		out := &stmtSnap{K: "emit", Sig: name}
		if s.Value != nil {
			out.X = exprText(*s.Value)
		}
		return out, nil
	case *kernel.Assign:
		return &stmtSnap{K: "assign", LHS: exprText(s.LHS), RHS: exprText(s.RHS)}, nil
	case *kernel.Eval:
		return &stmtSnap{K: "eval", X: exprText(s.X)}, nil
	case *kernel.DataCall:
		return &stmtSnap{K: "call", Name: s.F.Name}, nil
	case *kernel.Seq:
		kids, err := e.kids(s.List...)
		if err != nil {
			return nil, err
		}
		return &stmtSnap{K: "seq", Kids: kids}, nil
	case *kernel.Loop:
		kids, err := e.kids(s.Body)
		if err != nil {
			return nil, err
		}
		return &stmtSnap{K: "loop", Kids: kids}, nil
	case *kernel.Par:
		kids, err := e.kids(s.Branches...)
		if err != nil {
			return nil, err
		}
		return &stmtSnap{K: "par", Kids: kids}, nil
	case *kernel.Present:
		sx, err := e.sigx(s.Sig)
		if err != nil {
			return nil, err
		}
		kids, err := e.kids(s.Then, s.Else)
		if err != nil {
			return nil, err
		}
		return &stmtSnap{K: "present", SigX: sx, Kids: kids}, nil
	case *kernel.IfData:
		kids, err := e.kids(s.Then, s.Else)
		if err != nil {
			return nil, err
		}
		return &stmtSnap{K: "ifdata", X: exprText(s.Cond), Kids: kids}, nil
	case *kernel.Trap:
		kids, err := e.kids(s.Body)
		if err != nil {
			return nil, err
		}
		return &stmtSnap{K: "trap", Name: s.Name, Kids: kids}, nil
	case *kernel.Exit:
		if s.Target == nil {
			return nil, fmt.Errorf("pipeline: exit without target")
		}
		return &stmtSnap{K: "exit", Name: s.Target.Name}, nil
	case *kernel.Abort:
		sx, err := e.sigx(s.Sig)
		if err != nil {
			return nil, err
		}
		kids, err := e.kids(s.Body, s.Handler)
		if err != nil {
			return nil, err
		}
		return &stmtSnap{K: "abort", SigX: sx, Weak: s.Weak, Kids: kids}, nil
	case *kernel.Suspend:
		sx, err := e.sigx(s.Sig)
		if err != nil {
			return nil, err
		}
		kids, err := e.kids(s.Body)
		if err != nil {
			return nil, err
		}
		return &stmtSnap{K: "suspend", SigX: sx, Kids: kids}, nil
	case *kernel.Local:
		name, err := e.sigName(s.Sig)
		if err != nil {
			return nil, err
		}
		kids, err := e.kids(s.Body)
		if err != nil {
			return nil, err
		}
		return &stmtSnap{K: "local", Sig: name, Kids: kids}, nil
	case nil:
		return nil, fmt.Errorf("pipeline: nil statement outside child slot")
	}
	return nil, fmt.Errorf("pipeline: unknown kernel statement %T", s)
}

// referenceLowered is what the lowered snapshot was before the
// appender: json.Marshal of the lowSnap tree.
func referenceLowered(low *lower.Result, bodies bool) ([]byte, error) {
	snap, err := buildLowSnap(low, bodies)
	if err != nil {
		return nil, err
	}
	return json.Marshal(snap)
}

// checkAppender compares appendLowered with the reference encoder, with
// and without bodies: the same bytes, or the same error.
func checkAppender(t *testing.T, what string, low *lower.Result) {
	t.Helper()
	for _, bodies := range []bool{false, true} {
		want, werr := referenceLowered(low, bodies)
		got, gerr := appendLowered([]byte("prefix"), low, bodies)
		switch {
		case werr != nil || gerr != nil:
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
				t.Errorf("%s (bodies=%t): appender error %v, reference error %v", what, bodies, gerr, werr)
			}
		case string(got) != "prefix"+string(want):
			t.Errorf("%s (bodies=%t): appender wrote\n%s\nreference wrote\n%s", what, bodies, got[len("prefix"):], want)
		}
	}
}

// TestLoweredAppenderMatchesReference holds the appender to the
// reference encoder on every module of the key corpus and of a
// 300-module generated file.
func TestLoweredAppenderMatchesReference(t *testing.T) {
	files := append(keyCorpus(t), corpusFile{"mega.ecl", eclgen.File(1, 300), core.Options{}})
	n := 0
	for _, f := range files {
		prog, err := core.Parse(f.path, f.src, f.opts)
		if err != nil {
			t.Fatalf("%s: %v", f.path, err)
		}
		for _, m := range prog.Modules() {
			var diags source.DiagList
			low, err := lower.Lower(prog.Info, m, f.opts.Policy, &diags)
			if err != nil {
				t.Fatalf("%s/%s: lower: %v", f.path, m, err)
			}
			checkAppender(t, f.path+"/"+m, low)
			n++
		}
	}
	t.Logf("%d modules", n)
}

// strangeStmt is a statement kind the codec does not know.
type strangeStmt struct{ kernel.Nothing }

// TestLoweredAppenderEdgeCases builds kernel modules by hand to reach
// what no source lowers to: empty names (omitted members), typed and
// untyped signals and variables, nil child slots, weak aborts, every
// signal-expression form, and each error the codec reports.
func TestLoweredAppenderEdgeCases(t *testing.T) {
	in := &kernel.Signal{Name: "in<1>", Class: kernel.Input, Pure: true}
	val := &kernel.Signal{Name: "v&", Class: kernel.Output, Type: ctypes.Int}
	loc := &kernel.Signal{Name: "", Class: kernel.LocalSig, Pure: true}
	b := &kernel.Binding{Label: `top."i"`}
	x := kernel.Expr{B: b, E: &ast.Ident{Name: "n"}}
	f := &kernel.DataFunc{Name: "", B: b}
	trap := &kernel.Trap{Name: ""}
	trap.Body = &kernel.Exit{Target: trap}
	ref := func(s *kernel.Signal) kernel.SigExpr { return &kernel.SigRef{Sig: s} }
	full := &kernel.Seq{List: []kernel.Stmt{
		&kernel.Nothing{}, &kernel.Pause{}, &kernel.Halt{}, nil,
		&kernel.Await{Sig: &kernel.SigAnd{X: ref(in), Y: &kernel.SigNot{X: &kernel.SigOr{X: ref(loc), Y: ref(in)}}}},
		&kernel.Emit{Sig: val, Value: &x}, &kernel.Emit{Sig: loc},
		&kernel.Assign{LHS: x, RHS: kernel.Expr{E: &ast.Ident{Name: "m"}}},
		&kernel.Eval{X: x}, &kernel.DataCall{F: f},
		&kernel.Loop{}, &kernel.Par{}, &kernel.Par{Branches: []kernel.Stmt{nil, &kernel.Nothing{}}},
		&kernel.Present{Sig: ref(in), Else: &kernel.Pause{}},
		&kernel.IfData{Cond: x, Then: &kernel.Nothing{}},
		trap,
		&kernel.Abort{Sig: ref(in), Weak: true, Body: &kernel.Halt{}},
		&kernel.Abort{Sig: ref(in), Handler: &kernel.Nothing{}},
		&kernel.Suspend{Sig: ref(in), Body: &kernel.Halt{}},
		&kernel.Local{Sig: loc},
		&kernel.Seq{},
	}}
	module := func(body kernel.Stmt, sigs ...*kernel.Signal) *lower.Result {
		return &lower.Result{
			Module: &kernel.Module{
				Name:    "m<&>",
				Inputs:  []*kernel.Signal{in},
				Outputs: []*kernel.Signal{val},
				Locals:  append([]*kernel.Signal{loc}, sigs...),
				Vars:    []*kernel.Var{{Name: "n", Type: ctypes.Int}, {Name: "opaque"}},
				Funcs:   []*kernel.DataFunc{f, {Name: "g", B: &kernel.Binding{}}},
				Body:    body,
			},
			Info:   &sem.Info{Types: map[string]ctypes.Type{"b_t": ctypes.Int, "a_t": ctypes.Int}},
			Policy: lower.MinimalReactive,
		}
	}
	checkAppender(t, "full", module(full))
	checkAppender(t, "no info", &lower.Result{Module: &kernel.Module{Name: "bare", Body: &kernel.Nothing{}}})
	checkAppender(t, "listed twice", module(&kernel.Nothing{}, loc))

	stranger := &kernel.Signal{Name: "s", Class: kernel.LocalSig}
	for what, low := range map[string]*lower.Result{
		"duplicate name":       module(&kernel.Nothing{}, &kernel.Signal{Name: "v&", Class: kernel.LocalSig}),
		"undeclared emit":      module(&kernel.Emit{Sig: stranger}),
		"undeclared in sigx":   module(&kernel.Await{Sig: &kernel.SigAnd{X: ref(in), Y: ref(stranger)}}),
		"undeclared local":     module(&kernel.Local{Sig: stranger}),
		"exit without target":  module(&kernel.Loop{Body: &kernel.Exit{}}),
		"unknown statement":    module(&kernel.Seq{List: []kernel.Stmt{&strangeStmt{}}}),
		"unknown signal expr":  module(&kernel.Await{Sig: nil}),
		"nil body":             module(nil),
		"error after emission": module(&kernel.Par{Branches: []kernel.Stmt{&kernel.Emit{Sig: val}, &kernel.Exit{}}}),
	} {
		if _, err := appendLowered(nil, low, false); err == nil {
			t.Errorf("%s: appender accepted the module", what)
		}
		checkAppender(t, what, low)
	}
}
