package pipeline

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/kernel"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// snapCodecVersion versions the serialized IR snapshots (lowered
// kernel and EFSM). It is folded into every phase key, so bumping it
// on an incompatible codec change turns stale snapshots into misses
// instead of decode errors.
const snapCodecVersion = 1

// ---------------------------------------------------------------------------
// Lowered-kernel snapshot
//
// The lowered IR serializes structurally: signals, variables, and data
// functions by name, the statement tree as a tagged union, and data
// expressions as canonical printed source (ast.ExprString) plus the
// owning instance's binding label. Decoding reparses the printed
// fragments, so the round trip is exact at the text level:
// Encode(Decode(Encode(x))) == Encode(x). A decoded module is
// structurally faithful — kernel statistics, Esterel rendering,
// numbering, and fingerprints all match the original — but its
// expressions carry fresh, unanalyzed bindings, so it cannot be
// executed or recompiled without re-running the front end.

type lowSnap struct {
	V        int        `json:"v"`
	Module   string     `json:"module"`
	Policy   int        `json:"policy"`
	Typedefs []string   `json:"typedefs,omitempty"`
	Inputs   []sigSnap  `json:"inputs,omitempty"`
	Outputs  []sigSnap  `json:"outputs,omitempty"`
	Locals   []sigSnap  `json:"locals,omitempty"`
	Vars     []varSnap  `json:"vars,omitempty"`
	Funcs    []funcSnap `json:"funcs,omitempty"`
	Body     *stmtSnap  `json:"body"`
}

type sigSnap struct {
	Name string    `json:"name"`
	Pure bool      `json:"pure,omitempty"`
	Type *typeSnap `json:"type,omitempty"`
}

type varSnap struct {
	Name string    `json:"name"`
	Type *typeSnap `json:"type,omitempty"`
}

// typeSnap captures what downstream consumers read from a ctypes.Type:
// the C spelling (rendering, fingerprints) and the layout (the cost
// model). Decoding produces an opaque type with the same answers.
type typeSnap struct {
	S     string `json:"s"`
	K     int    `json:"k"`
	Size  int    `json:"size"`
	Align int    `json:"align"`
}

type funcSnap struct {
	Name  string `json:"name"`
	Label string `json:"label"`
	Body  string `json:"body"` // printed statements, newline-joined
}

// exprTextSnap is a data expression: canonical printed source plus the
// binding label of the instance it evaluates in.
type exprTextSnap struct {
	T string `json:"t"`
	L string `json:"l"`
}

type sigxSnap struct {
	K   string    `json:"k"` // ref, not, and, or
	Sig string    `json:"sig,omitempty"`
	X   *sigxSnap `json:"x,omitempty"`
	Y   *sigxSnap `json:"y,omitempty"`
}

// stmtSnap is one kernel statement. Kids carries child statements in a
// per-kind convention (seq: list; loop/suspend/trap/local: [body];
// present/ifdata: [then, else]; abort: [body, handler]; par:
// branches); nil children are preserved as nulls.
type stmtSnap struct {
	K    string        `json:"k"`
	Sig  string        `json:"sig,omitempty"`  // emit / local
	SigX *sigxSnap     `json:"sigx,omitempty"` // await / present / abort / suspend
	Name string        `json:"name,omitempty"` // trap, exit target, data call
	LHS  *exprTextSnap `json:"lhs,omitempty"`
	RHS  *exprTextSnap `json:"rhs,omitempty"`
	X    *exprTextSnap `json:"x,omitempty"` // eval expr / emit value / ifdata cond
	Weak bool          `json:"weak,omitempty"`
	Kids []*stmtSnap   `json:"kids,omitempty"`
}

// EncodeLowered serializes a lowering result (module structure, data
// function bodies included). The pipeline stores no lowered snapshot;
// its structural half, without bodies, is what Fingerprints hashes
// into the efsm key.
func EncodeLowered(low *lower.Result) ([]byte, error) {
	snap, err := buildLowSnap(low, true)
	if err != nil {
		return nil, err
	}
	return json.Marshal(snap)
}

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

// ---------------------------------------------------------------------------
// Decode

// opaqueType is a ctypes.Type reconstructed from a snapshot: it
// answers spelling and layout questions identically to the original
// but carries no structure.
type opaqueType struct {
	kind        ctypes.Kind
	size, align int
	str         string
}

func (t *opaqueType) Kind() ctypes.Kind { return t.kind }
func (t *opaqueType) Size() int         { return t.size }
func (t *opaqueType) Align() int        { return t.align }
func (t *opaqueType) String() string    { return t.str }

func (t *typeSnap) decode() ctypes.Type {
	if t == nil {
		return nil
	}
	return &opaqueType{kind: ctypes.Kind(t.K), size: t.Size, align: t.Align, str: t.S}
}

// DecodeLowered rebuilds a lowering result from its snapshot. The
// result is structurally faithful (see the codec comment above) but
// not executable: its expressions are reparsed with fresh bindings and
// its Info is empty.
func DecodeLowered(data []byte) (*lower.Result, error) {
	var snap lowSnap
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("pipeline: lowered snapshot: %w", err)
	}
	if snap.V != snapCodecVersion {
		return nil, fmt.Errorf("pipeline: lowered snapshot codec v%d (want v%d)", snap.V, snapCodecVersion)
	}
	if snap.Module == "" || snap.Body == nil {
		return nil, fmt.Errorf("pipeline: lowered snapshot missing module or body")
	}
	info := emptyInfo()
	// Preserve the typedef names (as opaque int aliases) so re-encoding
	// a decoded module lists the same set and nested reparses keep
	// working.
	for _, td := range snap.Typedefs {
		info.Types[td] = ctypes.Int
	}
	dec := &lowDecoder{
		typedefs: snap.Typedefs,
		info:     info,
		sigs:     make(map[string]*kernel.Signal),
		bindings: make(map[string]*kernel.Binding),
		funcs:    make(map[string]*kernel.DataFunc),
	}
	mod := &kernel.Module{Name: snap.Module}
	add := func(list []sigSnap, class kernel.SigClass) []*kernel.Signal {
		out := make([]*kernel.Signal, 0, len(list))
		for _, ss := range list {
			sig := &kernel.Signal{Name: ss.Name, Class: class, Pure: ss.Pure, Type: ss.Type.decode()}
			dec.sigs[ss.Name] = sig
			out = append(out, sig)
		}
		return out
	}
	mod.Inputs = add(snap.Inputs, kernel.Input)
	mod.Outputs = add(snap.Outputs, kernel.Output)
	mod.Locals = add(snap.Locals, kernel.LocalSig)
	for _, vs := range snap.Vars {
		mod.Vars = append(mod.Vars, &kernel.Var{Name: vs.Name, Type: vs.Type.decode()})
	}
	for _, fs := range snap.Funcs {
		f := &kernel.DataFunc{Name: fs.Name, B: dec.binding(fs.Label)}
		if fs.Body != "" {
			stmts, err := dec.parseStmts(fs.Body)
			if err != nil {
				return nil, fmt.Errorf("pipeline: data function %s: %w", fs.Name, err)
			}
			f.Body = stmts
		}
		dec.funcs[fs.Name] = f
		mod.Funcs = append(mod.Funcs, f)
	}
	body, err := dec.stmt(snap.Body)
	if err != nil {
		return nil, err
	}
	mod.Body = body
	mod.Number()
	if err := mod.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: decoded module invalid: %w", err)
	}
	return &lower.Result{Module: mod, Info: dec.info, Policy: lower.Policy(snap.Policy)}, nil
}

// emptyInfo returns a blank analysis table for decoded bindings: the
// decoded module is structural, so nothing ever resolves through it,
// but downstream walkers expect the maps to exist.
func emptyInfo() *sem.Info {
	return &sem.Info{
		Types:      make(map[string]ctypes.Type),
		Structs:    make(map[string]*ctypes.StructType),
		Enums:      make(map[string]*ctypes.EnumType),
		Consts:     make(map[string]*sem.ConstInfo),
		Funcs:      make(map[string]*sem.FuncInfo),
		Modules:    make(map[string]*sem.ModuleInfo),
		Uses:       make(map[*ast.Ident]sem.Object),
		ExprType:   make(map[ast.Expr]ctypes.Type),
		MayHalt:    make(map[ast.Stmt]bool),
		IsInst:     make(map[*ast.Call]bool),
		VarOf:      make(map[*ast.VarDecl]*sem.VarInfo),
		TypeOfExpr: make(map[ast.TypeExpr]ctypes.Type),
	}
}

type lowDecoder struct {
	typedefs []string
	info     *sem.Info
	sigs     map[string]*kernel.Signal
	bindings map[string]*kernel.Binding
	funcs    map[string]*kernel.DataFunc
	traps    []*kernel.Trap // enclosing-scope stack
}

func (d *lowDecoder) binding(label string) *kernel.Binding {
	b, ok := d.bindings[label]
	if !ok {
		b = &kernel.Binding{
			Info:  d.info,
			Vars:  make(map[*sem.VarInfo]*kernel.Var),
			Sigs:  make(map[*sem.SignalInfo]*kernel.Signal),
			Label: label,
		}
		d.bindings[label] = b
	}
	return b
}

// parseStmts reparses printed statements inside a synthetic module
// wrapper, with the snapshot's typedef names pre-registered so C
// declarations parse unambiguously.
func (d *lowDecoder) parseStmts(body string) ([]ast.Stmt, error) {
	var b strings.Builder
	for _, td := range d.typedefs {
		fmt.Fprintf(&b, "typedef int %s;\n", td)
	}
	b.WriteString("module __snap (input pure __snap_tick) {\n")
	b.WriteString(body)
	b.WriteString("\n}\n")
	var diags source.DiagList
	f := parser.ParseFile(source.NewFile("snapshot", b.String()), &diags)
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	mods := f.Modules()
	if len(mods) != 1 || mods[0].Body == nil {
		return nil, fmt.Errorf("snapshot fragment did not parse to one module")
	}
	return mods[0].Body.Stmts, nil
}

func (d *lowDecoder) parseExpr(snap *exprTextSnap) (kernel.Expr, error) {
	stmts, err := d.parseStmts(snap.T + ";")
	if err != nil {
		return kernel.Expr{}, fmt.Errorf("expression %q: %w", snap.T, err)
	}
	if len(stmts) != 1 {
		return kernel.Expr{}, fmt.Errorf("expression %q parsed to %d statements", snap.T, len(stmts))
	}
	es, ok := stmts[0].(*ast.ExprStmt)
	if !ok {
		return kernel.Expr{}, fmt.Errorf("expression %q parsed to %T", snap.T, stmts[0])
	}
	return kernel.Expr{B: d.binding(snap.L), E: es.X}, nil
}

func (d *lowDecoder) signal(name string) (*kernel.Signal, error) {
	s, ok := d.sigs[name]
	if !ok {
		return nil, fmt.Errorf("pipeline: snapshot references unknown signal %q", name)
	}
	return s, nil
}

func (d *lowDecoder) sigx(snap *sigxSnap) (kernel.SigExpr, error) {
	if snap == nil {
		return nil, fmt.Errorf("pipeline: missing signal expression")
	}
	switch snap.K {
	case "ref":
		s, err := d.signal(snap.Sig)
		if err != nil {
			return nil, err
		}
		return &kernel.SigRef{Sig: s}, nil
	case "not":
		x, err := d.sigx(snap.X)
		if err != nil {
			return nil, err
		}
		return &kernel.SigNot{X: x}, nil
	case "and":
		x, err := d.sigx(snap.X)
		if err != nil {
			return nil, err
		}
		y, err := d.sigx(snap.Y)
		if err != nil {
			return nil, err
		}
		return &kernel.SigAnd{X: x, Y: y}, nil
	case "or":
		x, err := d.sigx(snap.X)
		if err != nil {
			return nil, err
		}
		y, err := d.sigx(snap.Y)
		if err != nil {
			return nil, err
		}
		return &kernel.SigOr{X: x, Y: y}, nil
	}
	return nil, fmt.Errorf("pipeline: unknown signal expression kind %q", snap.K)
}

func (d *lowDecoder) kid(snap *stmtSnap, i int) (kernel.Stmt, error) {
	if i >= len(snap.Kids) || snap.Kids[i] == nil {
		return nil, nil
	}
	return d.stmt(snap.Kids[i])
}

func (d *lowDecoder) stmt(snap *stmtSnap) (kernel.Stmt, error) {
	switch snap.K {
	case "nothing":
		return &kernel.Nothing{}, nil
	case "pause":
		return &kernel.Pause{}, nil
	case "halt":
		return &kernel.Halt{}, nil
	case "await":
		sx, err := d.sigx(snap.SigX)
		if err != nil {
			return nil, err
		}
		return &kernel.Await{Sig: sx}, nil
	case "emit":
		sig, err := d.signal(snap.Sig)
		if err != nil {
			return nil, err
		}
		out := &kernel.Emit{Sig: sig}
		if snap.X != nil {
			v, err := d.parseExpr(snap.X)
			if err != nil {
				return nil, err
			}
			out.Value = &v
		}
		return out, nil
	case "assign":
		if snap.LHS == nil || snap.RHS == nil {
			return nil, fmt.Errorf("pipeline: assign snapshot missing operands")
		}
		lhs, err := d.parseExpr(snap.LHS)
		if err != nil {
			return nil, err
		}
		rhs, err := d.parseExpr(snap.RHS)
		if err != nil {
			return nil, err
		}
		return &kernel.Assign{LHS: lhs, RHS: rhs}, nil
	case "eval":
		if snap.X == nil {
			return nil, fmt.Errorf("pipeline: eval snapshot missing expression")
		}
		x, err := d.parseExpr(snap.X)
		if err != nil {
			return nil, err
		}
		return &kernel.Eval{X: x}, nil
	case "call":
		f, ok := d.funcs[snap.Name]
		if !ok {
			return nil, fmt.Errorf("pipeline: snapshot references unknown data function %q", snap.Name)
		}
		return &kernel.DataCall{F: f}, nil
	case "seq":
		out := &kernel.Seq{}
		for i := range snap.Kids {
			k, err := d.kid(snap, i)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, k)
		}
		return out, nil
	case "loop":
		body, err := d.kid(snap, 0)
		if err != nil {
			return nil, err
		}
		return &kernel.Loop{Body: body}, nil
	case "par":
		out := &kernel.Par{}
		for i := range snap.Kids {
			k, err := d.kid(snap, i)
			if err != nil {
				return nil, err
			}
			out.Branches = append(out.Branches, k)
		}
		return out, nil
	case "present":
		sx, err := d.sigx(snap.SigX)
		if err != nil {
			return nil, err
		}
		then, err := d.kid(snap, 0)
		if err != nil {
			return nil, err
		}
		els, err := d.kid(snap, 1)
		if err != nil {
			return nil, err
		}
		return &kernel.Present{Sig: sx, Then: then, Else: els}, nil
	case "ifdata":
		if snap.X == nil {
			return nil, fmt.Errorf("pipeline: ifdata snapshot missing condition")
		}
		cond, err := d.parseExpr(snap.X)
		if err != nil {
			return nil, err
		}
		then, err := d.kid(snap, 0)
		if err != nil {
			return nil, err
		}
		els, err := d.kid(snap, 1)
		if err != nil {
			return nil, err
		}
		return &kernel.IfData{Cond: cond, Then: then, Else: els}, nil
	case "trap":
		t := &kernel.Trap{Name: snap.Name}
		d.traps = append(d.traps, t)
		body, err := d.kid(snap, 0)
		d.traps = d.traps[:len(d.traps)-1]
		if err != nil {
			return nil, err
		}
		t.Body = body
		return t, nil
	case "exit":
		for i := len(d.traps) - 1; i >= 0; i-- {
			if d.traps[i].Name == snap.Name {
				return &kernel.Exit{Target: d.traps[i]}, nil
			}
		}
		return nil, fmt.Errorf("pipeline: exit targets unknown trap %q", snap.Name)
	case "abort":
		sx, err := d.sigx(snap.SigX)
		if err != nil {
			return nil, err
		}
		body, err := d.kid(snap, 0)
		if err != nil {
			return nil, err
		}
		handler, err := d.kid(snap, 1)
		if err != nil {
			return nil, err
		}
		return &kernel.Abort{Body: body, Sig: sx, Weak: snap.Weak, Handler: handler}, nil
	case "suspend":
		sx, err := d.sigx(snap.SigX)
		if err != nil {
			return nil, err
		}
		body, err := d.kid(snap, 0)
		if err != nil {
			return nil, err
		}
		return &kernel.Suspend{Body: body, Sig: sx}, nil
	case "local":
		sig, err := d.signal(snap.Sig)
		if err != nil {
			return nil, err
		}
		body, err := d.kid(snap, 0)
		if err != nil {
			return nil, err
		}
		return &kernel.Local{Sig: sig, Body: body}, nil
	}
	return nil, fmt.Errorf("pipeline: unknown statement kind %q", snap.K)
}
