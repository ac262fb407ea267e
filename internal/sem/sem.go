// Package sem implements semantic analysis for ECL: name resolution
// with block scoping, the signal/value overloading rule (a signal name
// means "presence" inside a reactive signal expression and "value"
// everywhere else), type checking over internal/ctypes, reactive-vs-
// data classification of statements, and module-instantiation checks.
//
// Analysis produces an Info that later phases (the splitter/lowering,
// the cost model, code generators) consult instead of re-deriving
// facts from the raw AST.
package sem

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/source"
	"repro/internal/token"
)

// Object is a named entity: a variable, signal, function, module, or
// enum constant.
type Object interface{ objectNode() }

// VarInfo describes one declared variable. Mangled is unique within
// the module, so later phases can flatten block scopes safely.
type VarInfo struct {
	Name    string
	Mangled string
	Type    ctypes.Type
	Decl    *ast.VarDecl
	Global  bool
}

// SignalInfo describes a module signal: an interface parameter or a
// module-local signal.
type SignalInfo struct {
	Name      string
	Dir       ast.SigDir // meaningful only for interface signals
	Pure      bool
	ValueType ctypes.Type // nil for pure signals
	Local     bool        // declared with "signal" inside the module
}

// FuncInfo describes a plain C function.
type FuncInfo struct {
	Name   string
	Ret    ctypes.Type
	Params []*VarInfo
	Decl   *ast.FuncDecl
	// Reached reports that some module body of the file references the
	// function, directly or through other functions' bodies. Analyze
	// records it once per file.
	Reached bool
}

// ConstInfo is an enum constant.
type ConstInfo struct {
	Name  string
	Value int64
}

// ModuleInfo describes one ECL module.
type ModuleInfo struct {
	Name   string
	Decl   *ast.ModuleDecl
	Params []*SignalInfo
	Locals []*SignalInfo // local signals, in declaration order
	Vars   []*VarInfo    // all variables (flattened), in declaration order
	// Instantiates lists modules this module instantiates (deduplicated).
	Instantiates []string
}

// Signal returns the parameter or local signal with the given name, or nil.
func (m *ModuleInfo) Signal(name string) *SignalInfo {
	for _, s := range m.Params {
		if s.Name == name {
			return s
		}
	}
	for _, s := range m.Locals {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func (*VarInfo) objectNode()    {}
func (*SignalInfo) objectNode() {}
func (*FuncInfo) objectNode()   {}
func (*ConstInfo) objectNode()  {}

// ModuleRef marks an identifier that names a module (in an
// instantiation).
type ModuleRef struct{ Module *ModuleInfo }

func (*ModuleRef) objectNode() {}

// Info is the result of analysis.
type Info struct {
	File    *ast.File
	Diags   *source.DiagList
	Types   map[string]ctypes.Type // typedef name -> type
	Structs map[string]*ctypes.StructType
	Enums   map[string]*ctypes.EnumType
	Consts  map[string]*ConstInfo
	Funcs   map[string]*FuncInfo
	Modules map[string]*ModuleInfo

	// Uses resolves each identifier occurrence to its object.
	Uses map[*ast.Ident]Object
	// ExprType records the value type of each expression.
	ExprType map[ast.Expr]ctypes.Type
	// MayHalt records, per statement, whether its subtree can end an
	// instant (contains await/halt, directly or through instantiation).
	MayHalt map[ast.Stmt]bool
	// IsInst marks calls that are module instantiations.
	IsInst map[*ast.Call]bool
	// VarOf resolves each variable declaration to its VarInfo.
	VarOf map[*ast.VarDecl]*VarInfo
	// TypeOfExpr caches resolved syntactic types (casts, sizeof).
	TypeOfExpr map[ast.TypeExpr]ctypes.Type

	// overlay, when non-nil, receives entries recorded after analysis
	// (lowering and code generation synthesize AST nodes and register
	// their resolution/type here) without touching the shared base maps
	// above. See Derive.
	overlay *overlay
}

// overlay holds post-analysis Uses/ExprType entries private to one
// Derive chain. Overlays never shadow base entries — writers only
// register freshly synthesized nodes — so lookups may consult base and
// overlay in either order; the parent link supports deriving from an
// already-derived Info (e.g. code generation over a lowering's view).
type overlay struct {
	parent   *overlay
	uses     map[*ast.Ident]Object
	exprType map[ast.Expr]ctypes.Type
}

// Derive returns a view of i that records new Uses/ExprType entries
// privately, leaving i untouched. It is cheap (no table copying), so
// one analyzed Info can feed any number of concurrent consumers:
// lowering derives a view per module, writes only to it, and the base
// tables stay immutable after Analyze returns.
func (i *Info) Derive() *Info {
	d := *i
	d.overlay = &overlay{
		parent:   i.overlay,
		uses:     make(map[*ast.Ident]Object),
		exprType: make(map[ast.Expr]ctypes.Type),
	}
	return &d
}

// SetUse records the resolution of a synthesized identifier. On a
// derived Info the entry lands in the private overlay; on a base Info
// (during analysis) it writes the shared table.
func (i *Info) SetUse(id *ast.Ident, obj Object) {
	if i.overlay != nil {
		i.overlay.uses[id] = obj
		return
	}
	i.Uses[id] = obj
}

// SetExprType records the value type of a synthesized expression,
// following the same overlay rule as SetUse.
func (i *Info) SetExprType(e ast.Expr, t ctypes.Type) {
	if i.overlay != nil {
		i.overlay.exprType[e] = t
		return
	}
	i.ExprType[e] = t
}

// UseOf resolves an identifier occurrence, consulting the overlay
// chain and the base table. Post-analysis consumers that may see
// synthesized nodes must use this instead of reading Uses directly.
func (i *Info) UseOf(id *ast.Ident) Object {
	for o := i.overlay; o != nil; o = o.parent {
		if obj, ok := o.uses[id]; ok {
			return obj
		}
	}
	return i.Uses[id]
}

// TypeOf reports the value type of an expression, consulting the
// overlay chain and the base table (nil when unrecorded).
func (i *Info) TypeOf(e ast.Expr) ctypes.Type {
	for o := i.overlay; o != nil; o = o.parent {
		if t, ok := o.exprType[e]; ok {
			return t
		}
	}
	return i.ExprType[e]
}

// Analyze type-checks the file and returns the accumulated Info. Errors
// are reported to diags; the returned Info is usable for error-free
// parts even when diags has errors.
func Analyze(f *ast.File, diags *source.DiagList) *Info {
	a := &analyzer{
		info: &Info{
			File:       f,
			Diags:      diags,
			Types:      make(map[string]ctypes.Type),
			Structs:    make(map[string]*ctypes.StructType),
			Enums:      make(map[string]*ctypes.EnumType),
			Consts:     make(map[string]*ConstInfo),
			Funcs:      make(map[string]*FuncInfo),
			Modules:    make(map[string]*ModuleInfo),
			Uses:       make(map[*ast.Ident]Object),
			ExprType:   make(map[ast.Expr]ctypes.Type),
			MayHalt:    make(map[ast.Stmt]bool),
			IsInst:     make(map[*ast.Call]bool),
			VarOf:      make(map[*ast.VarDecl]*VarInfo),
			TypeOfExpr: make(map[ast.TypeExpr]ctypes.Type),
		},
		diags: diags,
		calls: make(map[*FuncInfo][]*FuncInfo),
	}
	a.run(f)
	return a.info
}

type analyzer struct {
	info  *Info
	diags *source.DiagList

	// calls lists the functions each function body references, for
	// closing FuncInfo.Reached over function-to-function uses.
	calls map[*FuncInfo][]*FuncInfo

	// Per-module state.
	mod      *ModuleInfo
	fn       *FuncInfo
	scopes   []map[string]Object
	varSeq   int
	loopDep  int
	inSigCtx bool // inside a reactive signal expression
}

func (a *analyzer) errorf(pos source.Pos, format string, args ...interface{}) {
	a.diags.Errorf(pos, format, args...)
}

func (a *analyzer) run(f *ast.File) {
	// Pass 1: types, enum constants, function and module signatures.
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.TypedefDecl:
			t := a.resolveType(d.Type)
			if _, dup := a.info.Types[d.Name]; dup {
				a.errorf(d.Pos(), "typedef %q redefined", d.Name)
			}
			a.info.Types[d.Name] = t
		case *ast.TypeDecl:
			a.resolveType(d.Type) // registers tags / enum constants
		case *ast.GlobalVarDecl:
			// Registered in pass 2 after all types are known.
		case *ast.FuncDecl:
			a.declareFunc(d)
		case *ast.ModuleDecl:
			a.declareModule(d)
		}
	}
	// Pass 2: bodies.
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GlobalVarDecl:
			a.checkGlobalVar(d)
		case *ast.FuncDecl:
			a.checkFuncBody(d)
		case *ast.ModuleDecl:
			a.checkModuleBody(d)
		}
	}
	a.closeReached()
	a.checkInstantiationGraph()
}

// ---------------------------------------------------------------------------
// Types

func (a *analyzer) resolveType(t ast.TypeExpr) ctypes.Type {
	if t == nil {
		return ctypes.Void
	}
	if cached, ok := a.info.TypeOfExpr[t]; ok {
		return cached
	}
	r := a.resolveTypeUncached(t)
	a.info.TypeOfExpr[t] = r
	return r
}

func (a *analyzer) resolveTypeUncached(t ast.TypeExpr) ctypes.Type {
	switch t := t.(type) {
	case *ast.BuiltinType:
		switch t.Kind {
		case ast.Void:
			return ctypes.Void
		case ast.Bool:
			return ctypes.Bool
		case ast.Char:
			return ctypes.Char
		case ast.SChar:
			return ctypes.SChar
		case ast.UChar:
			return ctypes.UChar
		case ast.Short:
			return ctypes.Short
		case ast.UShort:
			return ctypes.UShort
		case ast.Int:
			return ctypes.Int
		case ast.UInt:
			return ctypes.UInt
		case ast.Long:
			return ctypes.Long
		case ast.ULong:
			return ctypes.ULong
		case ast.Float:
			return ctypes.Float
		case ast.Double:
			return ctypes.Double
		}
	case *ast.NamedType:
		if r, ok := a.info.Types[t.Name]; ok {
			return r
		}
		a.errorf(t.Pos(), "unknown type name %q", t.Name)
		return ctypes.Int
	case *ast.ArrayType:
		elem := a.resolveType(t.Elem)
		n, ok := a.constEval(t.Len)
		if !ok || n < 0 {
			a.errorf(t.Pos(), "array length must be a non-negative constant")
			n = 1
		}
		return &ctypes.ArrayType{Elem: elem, Len: int(n)}
	case *ast.PointerType:
		return &ctypes.PointerType{Elem: a.resolveType(t.Elem)}
	case *ast.StructType:
		if t.Fields == nil {
			if st, ok := a.info.Structs[t.Tag]; ok {
				return st
			}
			a.errorf(t.Pos(), "unknown %s tag %q",
				map[bool]string{true: "union", false: "struct"}[t.Union], t.Tag)
			return ctypes.NewStruct(t.Union, t.Tag, nil)
		}
		var fields []ctypes.StructField
		seen := make(map[string]bool)
		for _, f := range t.Fields {
			ft := a.resolveType(f.Type)
			for i := len(f.Dims) - 1; i >= 0; i-- {
				n, ok := a.constEval(f.Dims[i])
				if !ok || n < 0 {
					a.errorf(f.Dims[i].Pos(), "array length must be a non-negative constant")
					n = 1
				}
				ft = &ctypes.ArrayType{Elem: ft, Len: int(n)}
			}
			if seen[f.Name] {
				a.errorf(t.Pos(), "duplicate field %q", f.Name)
				continue
			}
			seen[f.Name] = true
			fields = append(fields, ctypes.StructField{Name: f.Name, Type: ft})
		}
		st := ctypes.NewStruct(t.Union, t.Tag, fields)
		if t.Tag != "" {
			a.info.Structs[t.Tag] = st
		}
		return st
	case *ast.EnumType:
		if t.Items == nil {
			if et, ok := a.info.Enums[t.Tag]; ok {
				return et
			}
			a.errorf(t.Pos(), "unknown enum tag %q", t.Tag)
			return &ctypes.EnumType{Tag: t.Tag}
		}
		et := &ctypes.EnumType{Tag: t.Tag, Items: make(map[string]int64)}
		next := int64(0)
		for _, it := range t.Items {
			if it.Value != nil {
				v, ok := a.constEval(it.Value)
				if !ok {
					a.errorf(it.Value.Pos(), "enum value must be constant")
				} else {
					next = v
				}
			}
			et.Items[it.Name] = next
			if _, dup := a.info.Consts[it.Name]; dup {
				a.errorf(t.Pos(), "enum constant %q redefined", it.Name)
			}
			a.info.Consts[it.Name] = &ConstInfo{Name: it.Name, Value: next}
			next++
		}
		if t.Tag != "" {
			a.info.Enums[t.Tag] = et
		}
		return et
	}
	a.errorf(t.Pos(), "unsupported type")
	return ctypes.Int
}

// constEval evaluates an integer constant expression.
func (a *analyzer) constEval(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		switch e.Kind {
		case token.INT:
			return parseIntLit(e.Value)
		case token.CHAR:
			v, ok := parseCharLit(e.Value)
			return v, ok
		}
	case *ast.Ident:
		if c, ok := a.info.Consts[e.Name]; ok {
			return c.Value, true
		}
	case *ast.Paren:
		return a.constEval(e.X)
	case *ast.Unary:
		v, ok := a.constEval(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case token.SUB:
			return -v, true
		case token.ADD:
			return v, true
		case token.NOT:
			if v == 0 {
				return 1, true
			}
			return 0, true
		case token.TILDE:
			return ^v, true
		}
	case *ast.Binary:
		x, ok1 := a.constEval(e.X)
		y, ok2 := a.constEval(e.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case token.ADD:
			return x + y, true
		case token.SUB:
			return x - y, true
		case token.MUL:
			return x * y, true
		case token.QUO:
			if y == 0 {
				return 0, false
			}
			return x / y, true
		case token.REM:
			if y == 0 {
				return 0, false
			}
			return x % y, true
		case token.SHL:
			return x << uint(y&63), true
		case token.SHR:
			return x >> uint(y&63), true
		case token.AND:
			return x & y, true
		case token.OR:
			return x | y, true
		case token.XOR:
			return x ^ y, true
		case token.EQL:
			return b2i(x == y), true
		case token.NEQ:
			return b2i(x != y), true
		case token.LSS:
			return b2i(x < y), true
		case token.GTR:
			return b2i(x > y), true
		case token.LEQ:
			return b2i(x <= y), true
		case token.GEQ:
			return b2i(x >= y), true
		case token.LAND:
			return b2i(x != 0 && y != 0), true
		case token.LOR:
			return b2i(x != 0 || y != 0), true
		}
	case *ast.SizeofExpr:
		if e.Type != nil {
			return int64(a.resolveType(e.Type).Size()), true
		}
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// parseIntLit parses decimal, hex (0x...), and octal (0...) literals.
func parseIntLit(s string) (int64, bool) {
	// Strip suffixes.
	for len(s) > 0 {
		switch s[len(s)-1] {
		case 'u', 'U', 'l', 'L':
			s = s[:len(s)-1]
			continue
		}
		break
	}
	if s == "" {
		return 0, false
	}
	neg := false
	base := int64(10)
	i := 0
	if len(s) > 1 && s[0] == '0' {
		if s[1] == 'x' || s[1] == 'X' {
			base = 16
			i = 2
		} else {
			base = 8
			i = 1
		}
	}
	var v int64
	for ; i < len(s); i++ {
		c := s[i]
		var d int64
		switch {
		case '0' <= c && c <= '9':
			d = int64(c - '0')
		case 'a' <= c && c <= 'f':
			d = int64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, false
		}
		if d >= base {
			return 0, false
		}
		v = v*base + d
	}
	if neg {
		v = -v
	}
	return v, true
}

func parseCharLit(s string) (int64, bool) {
	if len(s) < 3 || s[0] != '\'' || s[len(s)-1] != '\'' {
		return 0, false
	}
	body := s[1 : len(s)-1]
	if body[0] != '\\' {
		return int64(body[0]), true
	}
	if len(body) < 2 {
		return 0, false
	}
	switch body[1] {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case '0':
		return 0, true
	case '\\':
		return '\\', true
	case '\'':
		return '\'', true
	}
	return 0, false
}

// ConstEval exposes constant evaluation over the analyzed file's
// constants (for later phases).
func (i *Info) ConstEval(e ast.Expr) (int64, bool) {
	a := &analyzer{info: i, diags: &source.DiagList{}}
	return a.constEval(e)
}

// ---------------------------------------------------------------------------
// Declarations

func (a *analyzer) declareFunc(d *ast.FuncDecl) {
	if _, dup := a.info.Funcs[d.Name]; dup {
		// Allow a prototype followed by the definition.
		if d.Body == nil {
			return
		}
		if a.info.Funcs[d.Name].Decl.Body != nil {
			a.errorf(d.Pos(), "function %q redefined", d.Name)
			return
		}
	}
	fi := &FuncInfo{Name: d.Name, Ret: a.resolveType(d.Ret), Decl: d}
	for _, p := range d.Params {
		fi.Params = append(fi.Params, &VarInfo{
			Name:    p.Name,
			Mangled: p.Name,
			Type:    a.resolveType(p.Type),
		})
	}
	a.info.Funcs[d.Name] = fi
}

func (a *analyzer) declareModule(d *ast.ModuleDecl) {
	if _, dup := a.info.Modules[d.Name]; dup {
		a.errorf(d.Pos(), "module %q redefined", d.Name)
		return
	}
	mi := &ModuleInfo{Name: d.Name, Decl: d}
	seen := make(map[string]bool)
	for _, sp := range d.Params {
		if seen[sp.Name] {
			a.errorf(sp.DirPos, "duplicate signal parameter %q", sp.Name)
			continue
		}
		seen[sp.Name] = true
		si := &SignalInfo{Name: sp.Name, Dir: sp.Dir, Pure: sp.Pure}
		if !sp.Pure {
			si.ValueType = a.resolveType(sp.Type)
			if si.ValueType == ctypes.Void {
				a.errorf(sp.DirPos, "signal %q cannot carry void", sp.Name)
			}
		}
		mi.Params = append(mi.Params, si)
	}
	a.info.Modules[d.Name] = mi
}

func (a *analyzer) checkGlobalVar(d *ast.GlobalVarDecl) {
	// The paper notes Esterel's scoping cannot support mutable globals;
	// ECL therefore rejects them. (Constant tables would be the
	// exception; we keep the strict rule and diagnose.)
	a.errorf(d.Pos(), "global variable %q not supported (ECL restriction: no global/static variables)", d.Var.Name)
}

// ---------------------------------------------------------------------------
// Scopes

func (a *analyzer) pushScope() { a.scopes = append(a.scopes, make(map[string]Object)) }
func (a *analyzer) popScope()  { a.scopes = a.scopes[:len(a.scopes)-1] }

func (a *analyzer) declare(pos source.Pos, name string, obj Object) {
	top := a.scopes[len(a.scopes)-1]
	if _, dup := top[name]; dup {
		a.errorf(pos, "%q redeclared in this scope", name)
		return
	}
	top[name] = obj
}

func (a *analyzer) lookup(name string) Object {
	for i := len(a.scopes) - 1; i >= 0; i-- {
		if obj, ok := a.scopes[i][name]; ok {
			return obj
		}
	}
	if fi, ok := a.info.Funcs[name]; ok {
		return fi
	}
	if mi, ok := a.info.Modules[name]; ok {
		return &ModuleRef{Module: mi}
	}
	if c, ok := a.info.Consts[name]; ok {
		return c
	}
	return nil
}

// ---------------------------------------------------------------------------
// Function bodies

func (a *analyzer) checkFuncBody(d *ast.FuncDecl) {
	fi := a.info.Funcs[d.Name]
	if fi == nil || d.Body == nil {
		return
	}
	a.fn = fi
	a.mod = nil
	a.varSeq = 0
	a.pushScope()
	for _, p := range fi.Params {
		a.declare(d.Pos(), p.Name, p)
	}
	a.checkStmt(d.Body)
	if a.info.MayHalt[d.Body] {
		a.errorf(d.Pos(), "function %q contains reactive statements; only modules may react", d.Name)
	}
	a.popScope()
	a.fn = nil
}

// useFunc records that the body being checked references fi: a module
// body reaches it outright, a function body adds a use that
// closeReached follows.
func (a *analyzer) useFunc(fi *FuncInfo) {
	switch {
	case a.mod != nil:
		fi.Reached = true
	case a.fn != nil:
		a.calls[a.fn] = append(a.calls[a.fn], fi)
	}
}

// closeReached extends FuncInfo.Reached from the functions module
// bodies reference to everything their bodies reference in turn.
func (a *analyzer) closeReached() {
	var frontier []*FuncInfo
	for _, fi := range a.info.Funcs {
		if fi.Reached {
			frontier = append(frontier, fi)
		}
	}
	for len(frontier) > 0 {
		fi := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, callee := range a.calls[fi] {
			if !callee.Reached {
				callee.Reached = true
				frontier = append(frontier, callee)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Module bodies

func (a *analyzer) checkModuleBody(d *ast.ModuleDecl) {
	mi := a.info.Modules[d.Name]
	if mi == nil {
		return
	}
	a.mod = mi
	a.varSeq = 0
	a.pushScope()
	for _, s := range mi.Params {
		a.declare(d.Pos(), s.Name, s)
	}
	a.checkStmt(d.Body)
	a.popScope()
	a.mod = nil
}

// ---------------------------------------------------------------------------
// Statements

func (a *analyzer) checkStmt(s ast.Stmt) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.Block:
		a.pushScope()
		may := false
		for _, st := range s.Stmts {
			a.checkStmt(st)
			may = may || a.info.MayHalt[st]
		}
		a.popScope()
		a.info.MayHalt[s] = may

	case *ast.VarDecl:
		t := a.resolveType(s.Type)
		if t == ctypes.Void {
			a.errorf(s.Pos(), "variable %q cannot have void type", s.Name)
			t = ctypes.Int
		}
		a.varSeq++
		vi := &VarInfo{Name: s.Name, Mangled: fmt.Sprintf("%s_v%d", s.Name, a.varSeq), Type: t, Decl: s}
		if s.Init != nil {
			it := a.checkExpr(s.Init)
			if !ctypes.AssignableTo(it, t) {
				a.errorf(s.Init.Pos(), "cannot initialize %s with %s", t, it)
			}
		}
		a.declare(s.Pos(), s.Name, vi)
		a.info.VarOf[s] = vi
		if a.mod != nil {
			a.mod.Vars = append(a.mod.Vars, vi)
		}

	case *ast.SignalDecl:
		if a.mod == nil {
			a.errorf(s.Pos(), "signal declaration outside a module")
			return
		}
		si := &SignalInfo{Name: s.Name, Pure: s.Pure, Local: true}
		if !s.Pure {
			si.ValueType = a.resolveType(s.Type)
		}
		a.declare(s.Pos(), s.Name, si)
		a.mod.Locals = append(a.mod.Locals, si)

	case *ast.ExprStmt:
		a.checkExpr(s.X)
		if call, ok := s.X.(*ast.Call); ok && a.info.IsInst[call] {
			// A module instantiation may halt (its body usually does).
			a.info.MayHalt[s] = true
		}

	case *ast.Empty:

	case *ast.If:
		t := a.checkExpr(s.Cond)
		a.requireScalar(s.Cond, t)
		a.checkStmt(s.Then)
		a.checkStmt(s.Else)
		a.info.MayHalt[s] = a.info.MayHalt[s.Then] || (s.Else != nil && a.info.MayHalt[s.Else])

	case *ast.While:
		t := a.checkExpr(s.Cond)
		a.requireScalar(s.Cond, t)
		a.loopDep++
		a.checkStmt(s.Body)
		a.loopDep--
		a.info.MayHalt[s] = a.info.MayHalt[s.Body]

	case *ast.DoWhile:
		a.loopDep++
		a.checkStmt(s.Body)
		a.loopDep--
		t := a.checkExpr(s.Cond)
		a.requireScalar(s.Cond, t)
		a.info.MayHalt[s] = a.info.MayHalt[s.Body]

	case *ast.For:
		a.pushScope()
		a.checkStmt(s.Init)
		if s.Cond != nil {
			t := a.checkExpr(s.Cond)
			a.requireScalar(s.Cond, t)
		}
		a.checkStmt(s.Post)
		a.loopDep++
		a.checkStmt(s.Body)
		a.loopDep--
		a.popScope()
		a.info.MayHalt[s] = a.info.MayHalt[s.Body]

	case *ast.Switch:
		t := a.checkExpr(s.Tag)
		if !ctypes.IsInteger(t) {
			a.errorf(s.Tag.Pos(), "switch tag must be an integer, have %s", t)
		}
		may := false
		a.loopDep++ // break is legal inside switch
		for _, c := range s.Cases {
			for _, v := range c.Values {
				if _, ok := a.constEval(v); !ok {
					a.errorf(v.Pos(), "case value must be constant")
				}
			}
			for _, st := range c.Body {
				a.checkStmt(st)
				may = may || a.info.MayHalt[st]
			}
		}
		a.loopDep--
		a.info.MayHalt[s] = may

	case *ast.Break, *ast.Continue:
		if a.loopDep == 0 {
			a.errorf(s.Pos(), "break/continue outside loop or switch")
		}

	case *ast.Return:
		if a.mod != nil {
			a.errorf(s.Pos(), "return is not allowed in a module body")
			return
		}
		if a.fn != nil {
			if s.X != nil {
				t := a.checkExpr(s.X)
				if !ctypes.AssignableTo(t, a.fn.Ret) {
					a.errorf(s.Pos(), "cannot return %s from function returning %s", t, a.fn.Ret)
				}
			} else if a.fn.Ret != ctypes.Void {
				a.errorf(s.Pos(), "missing return value in function returning %s", a.fn.Ret)
			}
		}

	case *ast.Emit:
		sig := a.signalFor(s.Signal, true)
		if sig == nil {
			return
		}
		if s.Value != nil {
			if sig.Pure {
				a.errorf(s.Pos(), "emit_v on pure signal %q", sig.Name)
			} else {
				vt := a.checkExpr(s.Value)
				if !ctypes.AssignableTo(vt, sig.ValueType) {
					a.errorf(s.Value.Pos(), "cannot emit %s on signal of type %s", vt, sig.ValueType)
				}
			}
		} else if !sig.Pure {
			a.errorf(s.Pos(), "emit on valued signal %q requires emit_v", sig.Name)
		}

	case *ast.Await:
		if s.Sig != nil {
			a.checkSigExpr(s.Sig)
		}
		a.info.MayHalt[s] = true

	case *ast.Halt:
		a.info.MayHalt[s] = true

	case *ast.Present:
		a.checkSigExpr(s.Sig)
		a.checkStmt(s.Then)
		a.checkStmt(s.Else)
		a.info.MayHalt[s] = a.info.MayHalt[s.Then] || (s.Else != nil && a.info.MayHalt[s.Else])

	case *ast.DoPreempt:
		a.checkSigExpr(s.Sig)
		a.checkStmt(s.Body)
		if s.Handler != nil {
			a.checkStmt(s.Handler)
		}
		may := a.info.MayHalt[s.Body] || (s.Handler != nil && a.info.MayHalt[s.Handler])
		a.info.MayHalt[s] = may
		if !a.info.MayHalt[s.Body] {
			a.diags.Warnf(s.Pos(), "%s body never halts: it cannot be preempted", s.Kind)
		}

	case *ast.Par:
		may := false
		for _, b := range s.Branches {
			a.pushScope()
			a.checkStmt(b)
			a.popScope()
			may = may || a.info.MayHalt[b]
		}
		a.info.MayHalt[s] = may

	default:
		a.errorf(s.Pos(), "unsupported statement %T", s)
	}
}

func (a *analyzer) requireScalar(e ast.Expr, t ctypes.Type) {
	if t != nil && !ctypes.IsScalar(t) {
		a.errorf(e.Pos(), "condition must be scalar, have %s", t)
	}
}

// signalFor resolves an identifier that must name a signal. When
// write is true the signal must be emittable from this module (an
// output parameter or a local signal).
func (a *analyzer) signalFor(id *ast.Ident, write bool) *SignalInfo {
	obj := a.lookup(id.Name)
	if obj == nil {
		a.errorf(id.Pos(), "undefined signal %q", id.Name)
		return nil
	}
	sig, ok := obj.(*SignalInfo)
	if !ok {
		a.errorf(id.Pos(), "%q is not a signal", id.Name)
		return nil
	}
	a.info.Uses[id] = sig
	if write && !sig.Local && sig.Dir == ast.In {
		a.errorf(id.Pos(), "cannot emit input signal %q", id.Name)
	}
	return sig
}

// checkSigExpr validates a reactive signal expression: only signal
// names combined with &, |, ~ and parentheses (the paper's rule).
func (a *analyzer) checkSigExpr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		a.signalFor(e, false)
	case *ast.Paren:
		a.checkSigExpr(e.X)
	case *ast.Unary:
		if e.Op != token.TILDE && e.Op != token.NOT {
			a.errorf(e.Pos(), "operator %q not allowed in signal expression", e.Op)
		}
		a.checkSigExpr(e.X)
	case *ast.Binary:
		if e.Op != token.AND && e.Op != token.OR {
			a.errorf(e.Pos(), "operator %q not allowed in signal expression (use & and |)", e.Op)
		}
		a.checkSigExpr(e.X)
		a.checkSigExpr(e.Y)
	case nil:
		// empty await()
	default:
		a.errorf(e.Pos(), "signal expression may contain only signal names, &, |, ~")
	}
}

// ---------------------------------------------------------------------------
// Expressions

func (a *analyzer) checkExpr(e ast.Expr) ctypes.Type {
	t := a.checkExprUncached(e)
	if t == nil {
		t = ctypes.Int
	}
	a.info.ExprType[e] = t
	return t
}

func (a *analyzer) checkExprUncached(e ast.Expr) ctypes.Type {
	switch e := e.(type) {
	case *ast.Ident:
		obj := a.lookup(e.Name)
		if obj == nil {
			a.errorf(e.Pos(), "undefined name %q", e.Name)
			return ctypes.Int
		}
		a.info.Uses[e] = obj
		switch obj := obj.(type) {
		case *VarInfo:
			return obj.Type
		case *SignalInfo:
			// Value context: the signal's carried value.
			if obj.Pure {
				a.errorf(e.Pos(), "pure signal %q has no value (test presence with present/await)", e.Name)
				return ctypes.Int
			}
			return obj.ValueType
		case *ConstInfo:
			return ctypes.Int
		case *FuncInfo:
			a.useFunc(obj)
			a.errorf(e.Pos(), "function %q used as a value", e.Name)
			return ctypes.Int
		case *ModuleRef:
			a.errorf(e.Pos(), "module %q used as a value", e.Name)
			return ctypes.Int
		}

	case *ast.BasicLit:
		switch e.Kind {
		case token.INT:
			return ctypes.Int
		case token.FLOAT:
			return ctypes.Double
		case token.CHAR:
			return ctypes.Char
		case token.STRING:
			return &ctypes.PointerType{Elem: ctypes.Char}
		}

	case *ast.Paren:
		return a.checkExpr(e.X)

	case *ast.Unary:
		xt := a.checkExpr(e.X)
		switch e.Op {
		case token.SUB, token.ADD:
			if !ctypes.IsArithmetic(xt) {
				a.errorf(e.Pos(), "operator %q requires arithmetic operand, have %s", e.Op, xt)
			}
			return ctypes.Promote(xt)
		case token.NOT:
			a.requireScalar(e.X, xt)
			return ctypes.Int
		case token.TILDE:
			// ECL reading: ~ on a bool-typed operand (commonly a valued
			// bool signal, as in "if (~crc_ok)") is logical negation;
			// on other integers it is C bitwise complement.
			if xt == ctypes.Bool {
				return ctypes.Bool
			}
			if !ctypes.IsInteger(xt) {
				a.errorf(e.Pos(), "operator ~ requires integer operand, have %s", xt)
			}
			return ctypes.Promote(xt)
		case token.INC, token.DEC:
			a.requireLvalue(e.X)
			return xt
		case token.AND:
			return &ctypes.PointerType{Elem: xt}
		case token.MUL:
			if pt, ok := xt.(*ctypes.PointerType); ok {
				return pt.Elem
			}
			a.errorf(e.Pos(), "cannot dereference non-pointer %s", xt)
			return ctypes.Int
		}

	case *ast.Postfix:
		xt := a.checkExpr(e.X)
		a.requireLvalue(e.X)
		if !ctypes.IsArithmetic(xt) {
			a.errorf(e.Pos(), "operator %q requires arithmetic operand, have %s", e.Op, xt)
		}
		return xt

	case *ast.Binary:
		if e.Op == token.COMMA {
			a.checkExpr(e.X)
			return a.checkExpr(e.Y)
		}
		xt := a.checkExpr(e.X)
		yt := a.checkExpr(e.Y)
		switch e.Op {
		case token.LAND, token.LOR:
			a.requireScalar(e.X, xt)
			a.requireScalar(e.Y, yt)
			return ctypes.Int
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			a.checkComparable(e, xt, yt)
			return ctypes.Int
		case token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.REM:
			if !ctypes.IsInteger(xt) || !ctypes.IsInteger(yt) {
				a.errorf(e.Pos(), "operator %q requires integer operands, have %s and %s", e.Op, xt, yt)
			}
			return ctypes.UsualArithmetic(xt, yt)
		default:
			if !ctypes.IsArithmetic(xt) || !ctypes.IsArithmetic(yt) {
				a.errorf(e.Pos(), "operator %q requires arithmetic operands, have %s and %s", e.Op, xt, yt)
				return ctypes.Int
			}
			return ctypes.UsualArithmetic(xt, yt)
		}

	case *ast.Assign:
		lt := a.checkExpr(e.LHS)
		a.requireLvalue(e.LHS)
		rt := a.checkExpr(e.RHS)
		if e.Op == token.ASSIGN {
			if !ctypes.AssignableTo(rt, lt) {
				a.errorf(e.Pos(), "cannot assign %s to %s", rt, lt)
			}
		} else {
			if !ctypes.IsArithmetic(lt) || !ctypes.IsArithmetic(rt) {
				a.errorf(e.Pos(), "compound assignment requires arithmetic operands, have %s and %s", lt, rt)
			}
		}
		return lt

	case *ast.Cond:
		ct := a.checkExpr(e.CondX)
		a.requireScalar(e.CondX, ct)
		tt := a.checkExpr(e.Then)
		et := a.checkExpr(e.Else)
		if ctypes.IsArithmetic(tt) && ctypes.IsArithmetic(et) {
			return ctypes.UsualArithmetic(tt, et)
		}
		if !ctypes.Identical(tt, et) {
			a.errorf(e.Pos(), "mismatched branches in conditional: %s vs %s", tt, et)
		}
		return tt

	case *ast.Call:
		return a.checkCall(e)

	case *ast.Index:
		xt := a.checkExpr(e.X)
		st := a.checkExpr(e.Sub)
		if !ctypes.IsInteger(st) {
			a.errorf(e.Sub.Pos(), "array index must be an integer, have %s", st)
		}
		switch xt := xt.(type) {
		case *ctypes.ArrayType:
			return xt.Elem
		case *ctypes.PointerType:
			return xt.Elem
		}
		a.errorf(e.Pos(), "cannot index %s", xt)
		return ctypes.Int

	case *ast.Member:
		xt := a.checkExpr(e.X)
		if e.Arrow {
			pt, ok := xt.(*ctypes.PointerType)
			if !ok {
				a.errorf(e.Pos(), "-> on non-pointer %s", xt)
				return ctypes.Int
			}
			xt = pt.Elem
		}
		st, ok := xt.(*ctypes.StructType)
		if !ok {
			a.errorf(e.Pos(), "field access on non-struct %s", xt)
			return ctypes.Int
		}
		f := st.Field(e.Name)
		if f == nil {
			a.errorf(e.Pos(), "no field %q in %s", e.Name, st)
			return ctypes.Int
		}
		return f.Type

	case *ast.Cast:
		tt := a.resolveType(e.Type)
		xt := a.checkExpr(e.X)
		if ctypes.IsArithmetic(tt) && ctypes.IsArithmetic(xt) {
			return tt
		}
		// ECL extension used by the paper's Figure 2: casting a byte
		// array to an integer reinterprets its leading bytes
		// (big-endian, matching the MIPS target).
		if at, ok := xt.(*ctypes.ArrayType); ok && ctypes.IsInteger(tt) && ctypes.IsInteger(at.Elem) {
			return tt
		}
		if ctypes.Identical(tt, xt) {
			return tt
		}
		a.errorf(e.Pos(), "invalid cast from %s to %s", xt, tt)
		return tt

	case *ast.SizeofExpr:
		if e.Type != nil {
			a.resolveType(e.Type)
		} else {
			a.checkExpr(e.X)
		}
		return ctypes.UInt
	}
	a.errorf(e.Pos(), "unsupported expression %T", e)
	return ctypes.Int
}

func (a *analyzer) checkComparable(e *ast.Binary, xt, yt ctypes.Type) {
	if ctypes.IsArithmetic(xt) && ctypes.IsArithmetic(yt) {
		return
	}
	// Allow the Figure 2 idiom: integer compared against a byte array
	// (the array reinterpretation the cast rule also supports).
	if _, ok := xt.(*ctypes.ArrayType); ok && ctypes.IsInteger(yt) {
		return
	}
	if _, ok := yt.(*ctypes.ArrayType); ok && ctypes.IsInteger(xt) {
		return
	}
	a.errorf(e.Pos(), "cannot compare %s with %s", xt, yt)
}

func (a *analyzer) requireLvalue(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := a.lookup(e.Name)
		if _, ok := obj.(*VarInfo); !ok {
			if _, isSig := obj.(*SignalInfo); isSig {
				a.errorf(e.Pos(), "cannot assign to signal %q (signals are written with emit)", e.Name)
			} else {
				a.errorf(e.Pos(), "cannot assign to %q", e.Name)
			}
		}
	case *ast.Index:
		a.requireLvalue(e.X)
	case *ast.Member:
		if !e.Arrow {
			a.requireLvalue(e.X)
		}
	case *ast.Paren:
		a.requireLvalue(e.X)
	case *ast.Unary:
		if e.Op != token.MUL {
			a.errorf(e.Pos(), "expression is not assignable")
		}
	default:
		a.errorf(e.Pos(), "expression is not assignable")
	}
}

// checkCall handles both C function calls and module instantiations.
func (a *analyzer) checkCall(e *ast.Call) ctypes.Type {
	obj := a.lookup(e.Fun.Name)
	switch obj := obj.(type) {
	case *FuncInfo:
		a.info.Uses[e.Fun] = obj
		a.useFunc(obj)
		if len(e.Args) != len(obj.Params) {
			a.errorf(e.Pos(), "function %q expects %d arguments, got %d", obj.Name, len(obj.Params), len(e.Args))
		}
		for i, arg := range e.Args {
			at := a.checkExpr(arg)
			if i < len(obj.Params) && !ctypes.AssignableTo(at, obj.Params[i].Type) {
				a.errorf(arg.Pos(), "argument %d of %q: cannot pass %s as %s", i+1, obj.Name, at, obj.Params[i].Type)
			}
		}
		return obj.Ret

	case *ModuleRef:
		a.info.Uses[e.Fun] = obj
		a.info.IsInst[e] = true
		if a.mod == nil {
			a.errorf(e.Pos(), "module instantiation outside a module body")
			return ctypes.Void
		}
		callee := obj.Module
		a.mod.Instantiates = appendUnique(a.mod.Instantiates, callee.Name)
		if len(e.Args) != len(callee.Params) {
			a.errorf(e.Pos(), "module %q expects %d signals, got %d", callee.Name, len(callee.Params), len(e.Args))
			return ctypes.Void
		}
		for i, arg := range e.Args {
			id, ok := arg.(*ast.Ident)
			if !ok {
				a.errorf(arg.Pos(), "module arguments must be signal names")
				continue
			}
			sig := a.signalFor(id, false)
			if sig == nil {
				continue
			}
			want := callee.Params[i]
			if want.Pure != sig.Pure {
				a.errorf(arg.Pos(), "signal %q is %s but parameter %q of %q is %s",
					sig.Name, pureName(sig.Pure), want.Name, callee.Name, pureName(want.Pure))
				continue
			}
			if !want.Pure && !ctypes.Identical(want.ValueType, sig.ValueType) {
				a.errorf(arg.Pos(), "signal %q carries %s but parameter %q of %q carries %s",
					sig.Name, sig.ValueType, want.Name, callee.Name, want.ValueType)
			}
			if want.Dir == ast.Out && !sig.Local && sig.Dir == ast.In {
				a.errorf(arg.Pos(), "cannot connect output parameter %q of %q to input signal %q",
					want.Name, callee.Name, sig.Name)
			}
		}
		return ctypes.Void
	case nil:
		a.errorf(e.Pos(), "undefined function or module %q", e.Fun.Name)
	default:
		a.errorf(e.Pos(), "%q is not callable", e.Fun.Name)
	}
	for _, arg := range e.Args {
		a.checkExpr(arg)
	}
	return ctypes.Int
}

func pureName(pure bool) string {
	if pure {
		return "pure"
	}
	return "valued"
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// checkInstantiationGraph rejects recursive module instantiation.
func (a *analyzer) checkInstantiationGraph() {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(name string) bool
	visit = func(name string) bool {
		switch color[name] {
		case grey:
			return false
		case black:
			return true
		}
		color[name] = grey
		mi := a.info.Modules[name]
		if mi != nil {
			for _, callee := range mi.Instantiates {
				if !visit(callee) {
					a.errorf(mi.Decl.Pos(), "recursive module instantiation through %q", callee)
				}
			}
		}
		color[name] = black
		return true
	}
	for name := range a.info.Modules {
		visit(name)
	}
}
