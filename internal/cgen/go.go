package cgen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/efsm"
	"repro/internal/kernel"
	"repro/internal/sem"
	"repro/internal/token"
)

// GenerateGo renders the EFSM as a self-contained Go package (no
// imports) exposing:
//
//	func New() *Machine
//	func (m *Machine) React(in map[string][]byte) map[string][]byte
//
// Input map keys are input signal names; a nil value marks a pure
// signal present, a byte slice carries a valued signal's big-endian
// value. The returned map holds the emitted outputs the same way. All
// storage is byte-backed with MIPS-style big-endian scalars, so the
// generated code computes bit-for-bit what the interpreter computes.
func GenerateGo(m *efsm.Machine, pkg string) (string, error) {
	g := &gogen{
		m: m,
		// Compound-assignment expansion records types for nodes this
		// generator synthesizes; a derived view keeps the machine's
		// Info untouched so concurrent emits never race.
		info:   m.Info.Derive(),
		pkg:    pkg,
		varOff: map[*kernel.Var]int{},
		sigOff: map[*kernel.Signal]int{},
		sigIdx: map[*kernel.Signal]int{},
	}
	src, err := g.generate()
	if err != nil {
		return "", err
	}
	pretty, ferr := format.Source([]byte(src))
	if ferr != nil {
		return src, fmt.Errorf("generated Go does not format: %w", ferr)
	}
	return string(pretty), nil
}

type gogen struct {
	m      *efsm.Machine
	info   *sem.Info // derived view of m.Info (see GenerateGo)
	pkg    string
	b      strings.Builder
	varOff map[*kernel.Var]int
	sigOff map[*kernel.Signal]int
	sigIdx map[*kernel.Signal]int
	memLen int
	ind    int

	// locals maps function-scope variables to Go identifiers while
	// compiling a C function body.
	locals map[*sem.VarInfo]string
}

func (g *gogen) printf(format string, args ...interface{}) {
	g.b.WriteString(strings.Repeat("\t", g.ind))
	fmt.Fprintf(&g.b, format, args...)
}

func (g *gogen) generate() (string, error) {
	// Lay out storage: variables then signal value slots.
	for _, v := range g.m.Mod.Vars {
		g.varOff[v] = g.memLen
		g.memLen += v.Type.Size()
	}
	sigs := g.m.Mod.Signals()
	for i, s := range sigs {
		g.sigIdx[s] = i
		if !s.Pure && s.Type != nil {
			g.sigOff[s] = g.memLen
			g.memLen += s.Type.Size()
		}
	}

	fmt.Fprintf(&g.b, "// Code generated by eclc from ECL module %s. DO NOT EDIT.\n", g.m.Name)
	fmt.Fprintf(&g.b, "package %s\n\n", g.pkg)
	g.helpers()

	fmt.Fprintf(&g.b, "// Machine is the synthesized reactive machine (%d states).\n", len(g.m.States))
	fmt.Fprintf(&g.b, "type Machine struct {\n\tstate int\n\tdone bool\n\tmem [%d]byte\n\tpresent [%d]bool\n}\n\n", maxInt(g.memLen, 1), maxInt(len(sigs), 1))
	fmt.Fprintf(&g.b, "// New returns a machine in its boot state.\n")
	fmt.Fprintf(&g.b, "func New() *Machine { return &Machine{} }\n\n")
	fmt.Fprintf(&g.b, "// Done reports whether the program terminated.\n")
	fmt.Fprintf(&g.b, "func (m *Machine) Done() bool { return m.done }\n\n")

	// Signal index constants.
	fmt.Fprintf(&g.b, "// signal indices\nconst (\n")
	for _, s := range sigs {
		fmt.Fprintf(&g.b, "\tsig_%s = %d\n", sanitize(s.Name), g.sigIdx[s])
	}
	fmt.Fprintf(&g.b, ")\n\n")

	if err := g.userFunctions(); err != nil {
		return "", err
	}
	for _, f := range g.m.Mod.Funcs {
		if err := g.dataFunc(f); err != nil {
			return "", err
		}
	}
	if err := g.react(); err != nil {
		return "", err
	}
	return g.b.String(), nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (g *gogen) helpers() {
	fmt.Fprintf(&g.b, `// big-endian scalar helpers (MIPS layout)
func ldu(b []byte) int64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return int64(v)
}

func lds(b []byte) int64 {
	v := uint64(ldu(b))
	sh := uint(64 - 8*len(b))
	return int64(v<<sh) >> sh
}

func st(b []byte, v int64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func idx(b []byte, esz int, i int64) []byte { return b[esz*int(i) : esz*int(i)+esz] }

func fld(b []byte, off, size int) []byte { return b[off : off+size] }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func sel(c, a, b int64) int64 {
	if c != 0 {
		return a
	}
	return b
}

func w32s(v int64) int64 { return int64(int32(v)) }

func w32u(v int64) int64 { return int64(uint32(v)) }

`)
}

// ---------------------------------------------------------------------------
// React

func (g *gogen) react() error {
	fmt.Fprintf(&g.b, "// React runs one synchronous reaction with the given present\n")
	fmt.Fprintf(&g.b, "// inputs and returns the emitted outputs.\n")
	fmt.Fprintf(&g.b, "func (m *Machine) React(in map[string][]byte) map[string][]byte {\n")
	g.ind = 1
	g.printf("out := map[string][]byte{}\n")
	g.printf("if m.done {\n\t\treturn out\n\t}\n")
	g.printf("for i := range m.present {\n\t\tm.present[i] = false\n\t}\n")
	for _, s := range g.m.Mod.Inputs {
		if !s.Pure && s.Type != nil {
			g.printf("if v, ok := in[%q]; ok {\n", s.Name)
			g.ind++
			g.printf("m.present[sig_%s] = true\n", sanitize(s.Name))
			g.printf("copy(m.mem[%d:%d], v)\n", g.sigOff[s], g.sigOff[s]+s.Type.Size())
		} else {
			g.printf("if _, ok := in[%q]; ok {\n", s.Name)
			g.ind++
			g.printf("m.present[sig_%s] = true\n", sanitize(s.Name))
		}
		g.ind--
		g.printf("}\n")
	}
	g.printf("switch m.state {\n")
	for _, s := range g.m.States {
		g.printf("case %d:\n", s.ID)
		g.ind++
		if err := g.tree(s.Root); err != nil {
			return err
		}
		g.ind--
	}
	g.printf("}\n")
	g.printf("return out\n")
	g.ind = 0
	fmt.Fprintf(&g.b, "}\n")
	return nil
}

func (g *gogen) tree(n efsm.Node) error {
	switch n := n.(type) {
	case nil:
		g.printf("// unreachable\n")
	case *efsm.Leaf:
		if n.Terminal {
			g.printf("m.done = true\n")
		} else {
			g.printf("m.state = %d\n", n.To.ID)
		}
	case *efsm.ActNode:
		if err := g.action(n.Act); err != nil {
			return err
		}
		return g.tree(n.Next)
	case *efsm.InputBranch:
		g.printf("if m.present[sig_%s] {\n", sanitize(n.Sig.Name))
		g.ind++
		if err := g.tree(n.Then); err != nil {
			return err
		}
		g.ind--
		g.printf("} else {\n")
		g.ind++
		if err := g.tree(n.Else); err != nil {
			return err
		}
		g.ind--
		g.printf("}\n")
	case *efsm.DataBranch:
		cond, err := g.expr(n.Expr.B, n.Expr.E)
		if err != nil {
			return err
		}
		g.printf("if (%s) != 0 {\n", cond)
		g.ind++
		if err := g.tree(n.Then); err != nil {
			return err
		}
		g.ind--
		g.printf("} else {\n")
		g.ind++
		if err := g.tree(n.Else); err != nil {
			return err
		}
		g.ind--
		g.printf("}\n")
	}
	return nil
}

func (g *gogen) action(a efsm.Action) error {
	switch a.Kind {
	case efsm.ActEmit:
		if a.Value != nil {
			if err := g.assignTo(g.sigSlot(a.Sig), a.Sig.Type, a.Value.B, a.Value.E); err != nil {
				return err
			}
		}
		g.printf("m.present[sig_%s] = true\n", sanitize(a.Sig.Name))
		if a.Sig.Class == kernel.Output {
			if !a.Sig.Pure && a.Sig.Type != nil {
				g.printf("out[%q] = append([]byte(nil), %s...)\n", a.Sig.Name, g.sigSlot(a.Sig))
			} else {
				g.printf("out[%q] = nil\n", a.Sig.Name)
			}
		}
	case efsm.ActAssign:
		lt := g.info.TypeOf(a.LHS.E)
		lv, err := g.lvalue(a.LHS.B, a.LHS.E)
		if err != nil {
			return err
		}
		return g.assignToLV(lv, lt, a.RHS.B, a.RHS.E)
	case efsm.ActEval:
		return g.stmtExpr(a.X.B, a.X.E)
	case efsm.ActCall:
		g.printf("m.%s()\n", sanitize(a.F.Name))
	}
	return nil
}

func (g *gogen) sigSlot(s *kernel.Signal) string {
	return fmt.Sprintf("m.mem[%d:%d]", g.sigOff[s], g.sigOff[s]+s.Type.Size())
}

// assignTo stores the value of expression e into a byte-slice target.
func (g *gogen) assignTo(target string, t ctypes.Type, b *kernel.Binding, e ast.Expr) error {
	return g.assignToLV(target, t, b, e)
}

func (g *gogen) assignToLV(lv string, lt ctypes.Type, b *kernel.Binding, rhs ast.Expr) error {
	if lt != nil && isAggregateType(lt) {
		rv, err := g.lvalue(b, rhs)
		if err != nil {
			return err
		}
		g.printf("copy(%s, %s)\n", lv, rv)
		return nil
	}
	rv, err := g.expr(b, rhs)
	if err != nil {
		return err
	}
	g.printf("st(%s, %s)\n", lv, rv)
	return nil
}

// ---------------------------------------------------------------------------
// Data functions and statements

func (g *gogen) dataFunc(f *kernel.DataFunc) error {
	fmt.Fprintf(&g.b, "// %s: extracted data code from instance %s.\n", sanitize(f.Name), f.B.Label)
	fmt.Fprintf(&g.b, "func (m *Machine) %s() {\n", sanitize(f.Name))
	g.ind = 1
	for _, st := range f.Body {
		if err := g.stmt(f.B, st); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	g.ind = 0
	fmt.Fprintf(&g.b, "}\n\n")
	return nil
}

func (g *gogen) stmt(b *kernel.Binding, s ast.Stmt) error {
	switch s := s.(type) {
	case nil, *ast.Empty:
	case *ast.Block:
		g.printf("{\n")
		g.ind++
		for _, st := range s.Stmts {
			if err := g.stmt(b, st); err != nil {
				return err
			}
		}
		g.ind--
		g.printf("}\n")
	case *ast.VarDecl:
		vi := g.m.Info.VarOf[s]
		if vi == nil {
			return fmt.Errorf("unresolved declaration %q", s.Name)
		}
		if g.locals != nil {
			if !ctypes.IsArithmetic(vi.Type) {
				return fmt.Errorf("function-local aggregate %q unsupported by the Go backend", s.Name)
			}
			name := "v_" + sanitize(vi.Mangled)
			g.locals[vi] = name
			if s.Init != nil {
				init, err := g.expr(b, s.Init)
				if err != nil {
					return err
				}
				g.printf("%s := %s\n", name, g.truncFor(vi.Type, init))
			} else {
				g.printf("var %s int64\n", name)
			}
			g.printf("_ = %s\n", name)
			return nil
		}
		if s.Init != nil {
			lv, lt, err := g.varSlot(b, vi)
			if err != nil {
				return err
			}
			return g.assignToLV(lv, lt, b, s.Init)
		}
	case *ast.ExprStmt:
		return g.stmtExpr(b, s.X)
	case *ast.If:
		cond, err := g.expr(b, s.Cond)
		if err != nil {
			return err
		}
		g.printf("if (%s) != 0 {\n", cond)
		g.ind++
		if err := g.stmt(b, s.Then); err != nil {
			return err
		}
		g.ind--
		if s.Else != nil {
			g.printf("} else {\n")
			g.ind++
			if err := g.stmt(b, s.Else); err != nil {
				return err
			}
			g.ind--
		}
		g.printf("}\n")
	case *ast.While:
		cond, err := g.expr(b, s.Cond)
		if err != nil {
			return err
		}
		g.printf("for (%s) != 0 {\n", cond)
		g.ind++
		if err := g.stmt(b, s.Body); err != nil {
			return err
		}
		g.ind--
		g.printf("}\n")
	case *ast.DoWhile:
		cond, err := g.expr(b, s.Cond)
		if err != nil {
			return err
		}
		g.printf("for {\n")
		g.ind++
		if err := g.stmt(b, s.Body); err != nil {
			return err
		}
		g.printf("if (%s) == 0 {\n\tbreak\n}\n", cond)
		g.ind--
		g.printf("}\n")
	case *ast.For:
		if s.Init != nil {
			if err := g.stmt(b, s.Init); err != nil {
				return err
			}
		}
		cond := "1"
		if s.Cond != nil {
			c, err := g.expr(b, s.Cond)
			if err != nil {
				return err
			}
			cond = c
		}
		g.printf("for (%s) != 0 {\n", cond)
		g.ind++
		if err := g.stmt(b, s.Body); err != nil {
			return err
		}
		if s.Post != nil {
			if err := g.stmt(b, s.Post); err != nil {
				return err
			}
		}
		g.ind--
		g.printf("}\n")
	case *ast.Switch:
		tag, err := g.expr(b, s.Tag)
		if err != nil {
			return err
		}
		g.printf("switch %s {\n", tag)
		for ci, c := range s.Cases {
			if c.Values == nil {
				g.printf("default:\n")
			} else {
				var vals []string
				for _, v := range c.Values {
					cv, ok := g.m.Info.ConstEval(v)
					if !ok {
						return fmt.Errorf("non-constant case value")
					}
					vals = append(vals, fmt.Sprintf("%d", cv))
				}
				g.printf("case %s:\n", strings.Join(vals, ", "))
			}
			g.ind++
			for i, st := range c.Body {
				// A trailing break is implicit in Go's switch.
				if _, isBrk := st.(*ast.Break); isBrk && i == len(c.Body)-1 {
					continue
				}
				if err := g.stmt(b, st); err != nil {
					return err
				}
			}
			// C falls through into the next clause; Go must say so.
			if ci < len(s.Cases)-1 && completes(c.Body) {
				g.printf("fallthrough\n")
			}
			g.ind--
		}
		g.printf("}\n")
	case *ast.Break:
		g.printf("break\n")
	case *ast.Continue:
		g.printf("continue\n")
	case *ast.Return:
		if s.X != nil {
			v, err := g.expr(b, s.X)
			if err != nil {
				return err
			}
			g.printf("return %s\n", v)
		} else {
			g.printf("return 0\n")
		}
	default:
		return fmt.Errorf("unsupported statement %T", s)
	}
	return nil
}

// completes reports whether control can run off the end of a statement
// list, as opposed to leaving through break, continue or return.
func completes(list []ast.Stmt) bool {
	if len(list) == 0 {
		return true
	}
	switch s := list[len(list)-1].(type) {
	case *ast.Break, *ast.Continue, *ast.Return:
		return false
	case *ast.Block:
		return completes(s.Stmts)
	case *ast.If:
		return s.Else == nil || completes([]ast.Stmt{s.Then}) || completes([]ast.Stmt{s.Else})
	}
	return true
}

// stmtExpr compiles an expression statement (assignment, inc/dec, call).
func (g *gogen) stmtExpr(b *kernel.Binding, e ast.Expr) error {
	switch e := e.(type) {
	case *ast.Paren:
		return g.stmtExpr(b, e.X)
	case *ast.Binary:
		if e.Op == token.COMMA {
			if err := g.stmtExpr(b, e.X); err != nil {
				return err
			}
			return g.stmtExpr(b, e.Y)
		}
	case *ast.Assign:
		return g.compileAssign(b, e)
	case *ast.Postfix:
		return g.incDec(b, e.X, e.Op)
	case *ast.Unary:
		if e.Op == token.INC || e.Op == token.DEC {
			return g.incDec(b, e.X, e.Op)
		}
	case *ast.Call:
		v, err := g.expr(b, e)
		if err != nil {
			return err
		}
		g.printf("_ = %s\n", v)
		return nil
	}
	v, err := g.expr(b, e)
	if err != nil {
		return err
	}
	g.printf("_ = %s\n", v)
	return nil
}

func (g *gogen) incDec(b *kernel.Binding, x ast.Expr, op token.Kind) error {
	delta := "1"
	if op == token.DEC {
		delta = "-1"
	}
	if id, ok := x.(*ast.Ident); ok {
		if vi, ok := g.info.UseOf(id).(*sem.VarInfo); ok && g.locals != nil {
			if name, isLocal := g.locals[vi]; isLocal {
				g.printf("%s = %s\n", name, g.truncFor(vi.Type, name+" + ("+delta+")"))
				return nil
			}
		}
	}
	lv, err := g.lvalue(b, x)
	if err != nil {
		return err
	}
	sx, err := g.expr(b, x)
	if err != nil {
		return err
	}
	g.printf("st(%s, %s+(%s))\n", lv, sx, delta)
	return nil
}

func (g *gogen) compileAssign(b *kernel.Binding, e *ast.Assign) error {
	lt := g.info.TypeOf(e.LHS)
	if e.Op == token.ASSIGN {
		if id, ok := e.LHS.(*ast.Ident); ok {
			if vi, ok := g.info.UseOf(id).(*sem.VarInfo); ok && g.locals != nil {
				if name, isLocal := g.locals[vi]; isLocal {
					rv, err := g.expr(b, e.RHS)
					if err != nil {
						return err
					}
					g.printf("%s = %s\n", name, g.truncFor(vi.Type, rv))
					return nil
				}
			}
		}
		lv, err := g.lvalue(b, e.LHS)
		if err != nil {
			return err
		}
		return g.assignToLV(lv, lt, b, e.RHS)
	}
	// Compound assignment: expand to lhs = lhs OP rhs.
	binOp, ok := e.Op.AssignBinOp()
	if !ok {
		return fmt.Errorf("unsupported assignment operator %q", e.Op)
	}
	expanded := &ast.Assign{LHS: e.LHS, Op: token.ASSIGN, RHS: &ast.Binary{X: e.LHS, Op: binOp, Y: e.RHS}}
	g.info.SetExprType(expanded.RHS, g.info.TypeOf(e.LHS))
	return g.compileAssign(b, expanded)
}

// ---------------------------------------------------------------------------
// User C functions

func (g *gogen) userFunctions() error {
	var names []string
	for fname := range g.m.Info.Funcs {
		names = append(names, fname)
	}
	sort.Strings(names)
	for _, fname := range names {
		fi := g.m.Info.Funcs[fname]
		if fi.Decl.Body == nil {
			continue
		}
		g.locals = map[*sem.VarInfo]string{}
		var params []string
		for _, p := range fi.Params {
			if !ctypes.IsArithmetic(p.Type) {
				return fmt.Errorf("function %q: aggregate parameter %q unsupported by the Go backend", fname, p.Name)
			}
			name := "v_" + sanitize(p.Name)
			g.locals[p] = name
			params = append(params, name+" int64")
		}
		fmt.Fprintf(&g.b, "func (m *Machine) fn_%s(%s) int64 {\n", sanitize(fname), strings.Join(params, ", "))
		g.ind = 1
		for _, st := range fi.Decl.Body.Stmts {
			if err := g.stmt(nil, st); err != nil {
				return fmt.Errorf("function %q: %w", fname, err)
			}
		}
		g.printf("return 0\n")
		g.ind = 0
		fmt.Fprintf(&g.b, "}\n\n")
		g.locals = nil
	}
	return nil
}

// truncFor wraps an int64 Go expression to the C type's width.
func (g *gogen) truncFor(t ctypes.Type, v string) string {
	switch t {
	case ctypes.Bool:
		return fmt.Sprintf("b2i((%s) != 0)", v)
	case ctypes.Char, ctypes.SChar:
		return fmt.Sprintf("int64(int8(%s))", v)
	case ctypes.UChar:
		return fmt.Sprintf("int64(uint8(%s))", v)
	case ctypes.Short:
		return fmt.Sprintf("int64(int16(%s))", v)
	case ctypes.UShort:
		return fmt.Sprintf("int64(uint16(%s))", v)
	}
	if ctypes.IsUnsigned(t) {
		return fmt.Sprintf("w32u(%s)", v)
	}
	return fmt.Sprintf("w32s(%s)", v)
}
