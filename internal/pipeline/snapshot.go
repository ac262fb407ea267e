package pipeline

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/jsonstr"
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
//
// The lowSnap types below are the schema DecodeLowered reads;
// appendLowered writes that schema directly, byte for byte what
// encoding/json would make of it.

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
	return appendLowered(nil, low, true)
}

// appendLowered appends low's snapshot to dst: byte for byte what
// json.Marshal writes for the lowSnap schema above — fields in struct
// order, every omitempty honoured, null for an empty child slot, and
// HTML-safe string escaping — without building the snapshot tree.
// Function bodies are written only when bodies is set; otherwise each
// function's body is "". A module the codec cannot address (a signal
// name declared twice, a reference to an undeclared signal, an exit
// without a target, an unknown statement) reports an error.
func appendLowered(dst []byte, low *lower.Result, bodies bool) ([]byte, error) {
	mod := low.Module
	a := make(lowAppender, len(mod.Inputs)+len(mod.Outputs)+len(mod.Locals))
	for _, list := range [...][]*kernel.Signal{mod.Inputs, mod.Outputs, mod.Locals} {
		for _, s := range list {
			if prev, ok := a[s.Name]; ok && prev != s {
				return dst, fmt.Errorf("pipeline: signal name %q is not unique; module not snapshotable", s.Name)
			}
			a[s.Name] = s
		}
	}
	b := append(dst, `{"v":`...)
	b = strconv.AppendInt(b, snapCodecVersion, 10)
	b = jsonstr.Append(append(b, `,"module":`...), mod.Name)
	b = strconv.AppendInt(append(b, `,"policy":`...), int64(low.Policy), 10)
	if low.Info != nil && len(low.Info.Types) > 0 {
		names := make([]string, 0, len(low.Info.Types))
		for name := range low.Info.Types {
			names = append(names, name)
		}
		sort.Strings(names)
		b = append(b, `,"typedefs":[`...)
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonstr.Append(b, name)
		}
		b = append(b, ']')
	}
	b = appendSigs(b, `,"inputs":[`, mod.Inputs)
	b = appendSigs(b, `,"outputs":[`, mod.Outputs)
	b = appendSigs(b, `,"locals":[`, mod.Locals)
	if len(mod.Vars) > 0 {
		b = append(b, `,"vars":[`...)
		for i, v := range mod.Vars {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonstr.Append(append(b, `{"name":`...), v.Name)
			b = append(appendType(b, v.Type), '}')
		}
		b = append(b, ']')
	}
	if len(mod.Funcs) > 0 {
		b = append(b, `,"funcs":[`...)
		for i, f := range mod.Funcs {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonstr.Append(append(b, `{"name":`...), f.Name)
			b = jsonstr.Append(append(b, `,"label":`...), f.B.Label)
			b = append(b, `,"body":`...)
			if bodies {
				b = jsonstr.Append(b, string(appendFuncBody(nil, f)))
			} else {
				b = append(b, `""`...)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b, err := a.stmt(append(b, `,"body":`...), mod.Body)
	if err != nil {
		return dst, err
	}
	return append(b, '}'), nil
}

// appendFuncBody appends a data function's printed statements,
// newline-joined: the snapshot's body text and the data fingerprint's
// input.
func appendFuncBody(b []byte, f *kernel.DataFunc) []byte {
	for i, st := range f.Body {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, ast.String(st)...)
	}
	return b
}

// appendSigs appends a signal list under its opening text (key and
// bracket), or nothing for an empty list.
func appendSigs(b []byte, open string, sigs []*kernel.Signal) []byte {
	if len(sigs) == 0 {
		return b
	}
	b = append(b, open...)
	for i, s := range sigs {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonstr.Append(append(b, `{"name":`...), s.Name)
		if s.Pure {
			b = append(b, `,"pure":true`...)
		}
		b = append(appendType(b, s.Type), '}')
	}
	return append(b, ']')
}

// appendType appends a ",\"type\":…" member for t, or nothing for a nil
// type.
func appendType(b []byte, t ctypes.Type) []byte {
	if t == nil {
		return b
	}
	b = jsonstr.Append(append(b, `,"type":{"s":`...), t.String())
	b = strconv.AppendInt(append(b, `,"k":`...), int64(t.Kind()), 10)
	b = strconv.AppendInt(append(b, `,"size":`...), int64(t.Size()), 10)
	b = strconv.AppendInt(append(b, `,"align":`...), int64(t.Align()), 10)
	return append(b, '}')
}

// lowAppender writes the statement tree of appendLowered's snapshot.
// It maps the module's signals by their unique names; its methods
// take the buffer and return it extended, as the strconv appenders do.
type lowAppender map[string]*kernel.Signal

// sig appends a ",\"sig\":<name>" member naming a signal the module
// declares.
func (a lowAppender) sig(b []byte, s *kernel.Signal) ([]byte, error) {
	if a[s.Name] != s {
		return b, fmt.Errorf("pipeline: signal %q not declared in module", s.Name)
	}
	return appendName(b, `,"sig":`, s.Name), nil
}

// appendName appends an omitempty string member: member (the key with
// its comma and colon) and the value, or nothing for "".
func appendName(b []byte, member, value string) []byte {
	if value == "" {
		return b
	}
	return jsonstr.Append(append(b, member...), value)
}

// appendExpr appends a data expression member: member (the key with
// its comma and colon), then {"t":…,"l":…} holding the expression's
// printed source and its binding's label.
func appendExpr(b []byte, member string, x kernel.Expr) []byte {
	label := ""
	if x.B != nil {
		label = x.B.Label
	}
	b = jsonstr.Append(append(append(b, member...), `{"t":`...), ast.ExprString(x.E))
	return append(jsonstr.Append(append(b, `,"l":`...), label), '}')
}

// sigx appends a signal expression object.
func (a lowAppender) sigx(b []byte, x kernel.SigExpr) ([]byte, error) {
	var err error
	switch x := x.(type) {
	case *kernel.SigRef:
		b, err = a.sig(append(b, `{"k":"ref"`...), x.Sig)
	case *kernel.SigNot:
		b, err = a.sigx(append(b, `{"k":"not","x":`...), x.X)
	case *kernel.SigAnd:
		b, err = a.sigxPair(append(b, `{"k":"and","x":`...), x.X, x.Y)
	case *kernel.SigOr:
		b, err = a.sigxPair(append(b, `{"k":"or","x":`...), x.X, x.Y)
	default:
		return b, fmt.Errorf("pipeline: unknown signal expression %T", x)
	}
	if err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// sigxPair appends a binary signal expression's operands, its "x" key
// already written.
func (a lowAppender) sigxPair(b []byte, x, y kernel.SigExpr) ([]byte, error) {
	b, err := a.sigx(b, x)
	if err != nil {
		return b, err
	}
	return a.sigx(append(b, `,"y":`...), y)
}

// kids appends a ",\"kids\":[…]" member (nothing for an empty list),
// writing null for a nil child slot.
func (a lowAppender) kids(b []byte, list ...kernel.Stmt) ([]byte, error) {
	if len(list) == 0 {
		return b, nil
	}
	b = append(b, `,"kids":[`...)
	for i, s := range list {
		if i > 0 {
			b = append(b, ',')
		}
		if s == nil {
			b = append(b, "null"...)
			continue
		}
		var err error
		if b, err = a.stmt(b, s); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// stmt appends one kernel statement object. Members follow stmtSnap's
// field order: k, sig, sigx, name, lhs, rhs, x, weak, kids.
func (a lowAppender) stmt(b []byte, s kernel.Stmt) ([]byte, error) {
	var err error
	switch s := s.(type) {
	case *kernel.Nothing:
		b = append(b, `{"k":"nothing"`...)
	case *kernel.Pause:
		b = append(b, `{"k":"pause"`...)
	case *kernel.Halt:
		b = append(b, `{"k":"halt"`...)
	case *kernel.Await:
		b, err = a.sigx(append(b, `{"k":"await","sigx":`...), s.Sig)
	case *kernel.Emit:
		b, err = a.sig(append(b, `{"k":"emit"`...), s.Sig)
		if err == nil && s.Value != nil {
			b = appendExpr(b, `,"x":`, *s.Value)
		}
	case *kernel.Assign:
		b = appendExpr(append(b, `{"k":"assign"`...), `,"lhs":`, s.LHS)
		b = appendExpr(b, `,"rhs":`, s.RHS)
	case *kernel.Eval:
		b = appendExpr(append(b, `{"k":"eval"`...), `,"x":`, s.X)
	case *kernel.DataCall:
		b = appendName(append(b, `{"k":"call"`...), `,"name":`, s.F.Name)
	case *kernel.Seq:
		b, err = a.kids(append(b, `{"k":"seq"`...), s.List...)
	case *kernel.Loop:
		b, err = a.kids(append(b, `{"k":"loop"`...), s.Body)
	case *kernel.Par:
		b, err = a.kids(append(b, `{"k":"par"`...), s.Branches...)
	case *kernel.Present:
		if b, err = a.sigx(append(b, `{"k":"present","sigx":`...), s.Sig); err == nil {
			b, err = a.kids(b, s.Then, s.Else)
		}
	case *kernel.IfData:
		b = appendExpr(append(b, `{"k":"ifdata"`...), `,"x":`, s.Cond)
		b, err = a.kids(b, s.Then, s.Else)
	case *kernel.Trap:
		b, err = a.kids(appendName(append(b, `{"k":"trap"`...), `,"name":`, s.Name), s.Body)
	case *kernel.Exit:
		if s.Target == nil {
			return b, fmt.Errorf("pipeline: exit without target")
		}
		b = appendName(append(b, `{"k":"exit"`...), `,"name":`, s.Target.Name)
	case *kernel.Abort:
		if b, err = a.sigx(append(b, `{"k":"abort","sigx":`...), s.Sig); err == nil {
			if s.Weak {
				b = append(b, `,"weak":true`...)
			}
			b, err = a.kids(b, s.Body, s.Handler)
		}
	case *kernel.Suspend:
		if b, err = a.sigx(append(b, `{"k":"suspend","sigx":`...), s.Sig); err == nil {
			b, err = a.kids(b, s.Body)
		}
	case *kernel.Local:
		if b, err = a.sig(append(b, `{"k":"local"`...), s.Sig); err == nil {
			b, err = a.kids(b, s.Body)
		}
	case nil:
		return b, fmt.Errorf("pipeline: nil statement outside child slot")
	default:
		return b, fmt.Errorf("pipeline: unknown kernel statement %T", s)
	}
	if err != nil {
		return b, err
	}
	return append(b, '}'), nil
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
