package cgen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/efsm"
	"repro/internal/kernel"
	"repro/internal/sem"
	"repro/internal/token"
)

// GenerateC renders the EFSM as a C translation unit: state variables,
// signal value slots, the extracted data functions, and one reaction
// function whose body is a switch over control states with each
// state's decision tree as nested ifs — the shape POLIS-style software
// synthesis emits.
func GenerateC(m *efsm.Machine) string {
	g := &cgen{m: m, vars: map[*kernel.Var]string{}, sigs: map[*kernel.Signal]string{}}
	return g.generate()
}

type cgen struct {
	m    *efsm.Machine
	b    strings.Builder
	vars map[*kernel.Var]string
	sigs map[*kernel.Signal]string
	ind  int
}

func (g *cgen) printf(format string, args ...interface{}) {
	g.b.WriteString(strings.Repeat("    ", g.ind))
	fmt.Fprintf(&g.b, format, args...)
}

func (g *cgen) generate() string {
	name := sanitize(g.m.Name)
	fmt.Fprintf(&g.b, "/* Generated by eclc from ECL module %s. */\n", g.m.Name)
	fmt.Fprintf(&g.b, "/* Reactive part: %d states. */\n\n", len(g.m.States))
	fmt.Fprintf(&g.b, "#include <string.h>\n\n")
	fmt.Fprintf(&g.b, "/* big-endian load for the byte-array-to-integer cast idiom */\n")
	fmt.Fprintf(&g.b, "static unsigned long ecl_ld_be(const unsigned char *p, int n)\n")
	fmt.Fprintf(&g.b, "{\n    unsigned long v = 0;\n    int i;\n    for (i = 0; i < n; i++) v = (v << 8) | p[i];\n    return v;\n}\n\n")

	// Storage: module variables.
	fmt.Fprintf(&g.b, "/* module variables */\n")
	for _, v := range g.m.Mod.Vars {
		cn := sanitize(v.Name)
		g.vars[v] = cn
		fmt.Fprintf(&g.b, "static %s;\n", cDecl(cn, v.Type))
	}
	// Signal presence flags and value slots.
	fmt.Fprintf(&g.b, "\n/* signal presence flags and value slots */\n")
	for _, s := range g.m.Mod.Signals() {
		cn := sanitize(s.Name)
		g.sigs[s] = cn
		fmt.Fprintf(&g.b, "static unsigned char %s_present;\n", cn)
		if !s.Pure && s.Type != nil {
			fmt.Fprintf(&g.b, "static %s;\n", cDecl(cn+"_val", s.Type))
		}
	}
	fmt.Fprintf(&g.b, "\nstatic int %s_state = 0;\n", name)
	fmt.Fprintf(&g.b, "static int %s_done = 0;\n\n", name)

	// User C functions referenced by data code.
	g.userFunctions()

	// Extracted data functions.
	for _, f := range g.m.Mod.Funcs {
		g.dataFunc(f)
	}

	// The reaction function.
	fmt.Fprintf(&g.b, "/* One synchronous reaction. Present inputs are latched by the caller. */\n")
	fmt.Fprintf(&g.b, "void %s_react(void)\n{\n", name)
	g.ind = 1
	g.printf("if (%s_done) return;\n", name)
	g.printf("switch (%s_state) {\n", name)
	for _, s := range g.m.States {
		g.printf("case %d:\n", s.ID)
		g.ind++
		g.tree(s.Root)
		g.printf("break;\n")
		g.ind--
	}
	g.printf("}\n")
	g.ind = 0
	fmt.Fprintf(&g.b, "}\n")
	return g.b.String()
}

func (g *cgen) userFunctions() {
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
		var params []string
		for _, p := range fi.Params {
			params = append(params, cDecl(p.Name, p.Type))
		}
		if len(params) == 0 {
			params = []string{"void"}
		}
		fmt.Fprintf(&g.b, "static %s %s(%s)\n", CTypeName(fi.Ret), fname, strings.Join(params, ", "))
		g.funcBody(fi)
	}
}

// funcBody prints a plain C function body with local (unmangled) names.
func (g *cgen) funcBody(fi *sem.FuncInfo) {
	fmt.Fprintf(&g.b, "{\n")
	g.ind = 1
	for _, st := range fi.Decl.Body.Stmts {
		g.plainStmt(st)
	}
	g.ind = 0
	fmt.Fprintf(&g.b, "}\n\n")
}

// plainStmt prints function-body statements verbatim (they reference
// only parameters and locals, which keep their source names).
func (g *cgen) plainStmt(s ast.Stmt) {
	for _, line := range strings.Split(strings.TrimRight(ast.String(s), "\n"), "\n") {
		g.printf("%s\n", line)
	}
}

func (g *cgen) dataFunc(f *kernel.DataFunc) {
	fmt.Fprintf(&g.b, "/* extracted data code from instance %s */\n", f.B.Label)
	fmt.Fprintf(&g.b, "static void %s(void)\n{\n", sanitize(f.Name))
	g.ind = 1
	for _, st := range f.Body {
		g.stmt(f.B, st)
	}
	g.ind = 0
	fmt.Fprintf(&g.b, "}\n\n")
}

// ---------------------------------------------------------------------------
// Decision trees

func (g *cgen) tree(n efsm.Node) {
	switch n := n.(type) {
	case nil:
		g.printf("/* unreachable */\n")
	case *efsm.Leaf:
		if n.Terminal {
			g.printf("%s_done = 1;\n", sanitize(g.m.Name))
		} else {
			g.printf("%s_state = %d;\n", sanitize(g.m.Name), n.To.ID)
		}
	case *efsm.ActNode:
		g.action(n.Act)
		g.tree(n.Next)
	case *efsm.InputBranch:
		g.printf("if (%s_present) {\n", g.sigs[n.Sig])
		g.ind++
		g.tree(n.Then)
		g.ind--
		g.printf("} else {\n")
		g.ind++
		g.tree(n.Else)
		g.ind--
		g.printf("}\n")
	case *efsm.DataBranch:
		g.printf("if (%s) {\n", g.expr(n.Expr.B, n.Expr.E))
		g.ind++
		g.tree(n.Then)
		g.ind--
		g.printf("} else {\n")
		g.ind++
		g.tree(n.Else)
		g.ind--
		g.printf("}\n")
	}
}

func (g *cgen) action(a efsm.Action) {
	switch a.Kind {
	case efsm.ActEmit:
		if a.Value != nil {
			lhs := g.sigs[a.Sig] + "_val"
			if isAggregate(a.Sig) {
				g.printf("memcpy(&%s, &%s, sizeof(%s));\n", lhs, g.expr(a.Value.B, a.Value.E), lhs)
			} else {
				g.printf("%s = %s;\n", lhs, g.expr(a.Value.B, a.Value.E))
			}
		}
		g.printf("%s_present = 1;\n", g.sigs[a.Sig])
	case efsm.ActAssign:
		lt := g.m.Info.TypeOf(a.LHS.E)
		if lt != nil && isAggregateType(lt) {
			g.printf("memcpy(&%s, &%s, sizeof(%s));\n",
				g.expr(a.LHS.B, a.LHS.E), g.expr(a.RHS.B, a.RHS.E), g.expr(a.LHS.B, a.LHS.E))
		} else {
			g.printf("%s = %s;\n", g.expr(a.LHS.B, a.LHS.E), g.expr(a.RHS.B, a.RHS.E))
		}
	case efsm.ActEval:
		g.printf("%s;\n", g.expr(a.X.B, a.X.E))
	case efsm.ActCall:
		g.printf("%s();\n", sanitize(a.F.Name))
	}
}

func isAggregate(s *kernel.Signal) bool {
	return s.Type != nil && isAggregateType(s.Type)
}

func isAggregateType(t ctypes.Type) bool {
	switch t.Kind() {
	case ctypes.KindArray, ctypes.KindStruct:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Statements inside extracted data functions

func (g *cgen) stmt(b *kernel.Binding, s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.Empty:
	case *ast.Block:
		g.printf("{\n")
		g.ind++
		for _, st := range s.Stmts {
			g.stmt(b, st)
		}
		g.ind--
		g.printf("}\n")
	case *ast.VarDecl:
		// Storage is module-level; only the initializer remains here.
		if s.Init != nil {
			vi := g.m.Info.VarOf[s]
			if vi != nil && b.Vars[vi] != nil {
				g.printf("%s = %s;\n", g.vars[b.Vars[vi]], g.expr(b, s.Init))
			}
		}
	case *ast.ExprStmt:
		g.printf("%s;\n", g.expr(b, s.X))
	case *ast.If:
		g.printf("if (%s) {\n", g.expr(b, s.Cond))
		g.ind++
		g.stmt(b, s.Then)
		g.ind--
		if s.Else != nil {
			g.printf("} else {\n")
			g.ind++
			g.stmt(b, s.Else)
			g.ind--
		}
		g.printf("}\n")
	case *ast.While:
		g.printf("while (%s) {\n", g.expr(b, s.Cond))
		g.ind++
		g.stmt(b, s.Body)
		g.ind--
		g.printf("}\n")
	case *ast.DoWhile:
		g.printf("do {\n")
		g.ind++
		g.stmt(b, s.Body)
		g.ind--
		g.printf("} while (%s);\n", g.expr(b, s.Cond))
	case *ast.For:
		init, post := "", ""
		if s.Init != nil {
			init = g.inlineStmt(b, s.Init)
		}
		cond := ""
		if s.Cond != nil {
			cond = g.expr(b, s.Cond)
		}
		if s.Post != nil {
			post = g.inlineStmt(b, s.Post)
		}
		g.printf("for (%s; %s; %s) {\n", init, cond, post)
		g.ind++
		g.stmt(b, s.Body)
		g.ind--
		g.printf("}\n")
	case *ast.Switch:
		g.printf("switch (%s) {\n", g.expr(b, s.Tag))
		for _, c := range s.Cases {
			if c.Values == nil {
				g.printf("default:\n")
			} else {
				for _, v := range c.Values {
					g.printf("case %s:\n", g.expr(b, v))
				}
			}
			g.ind++
			for _, st := range c.Body {
				g.stmt(b, st)
			}
			g.ind--
		}
		g.printf("}\n")
	case *ast.Break:
		g.printf("break;\n")
	case *ast.Continue:
		g.printf("continue;\n")
	case *ast.Return:
		if s.X != nil {
			g.printf("return %s;\n", g.expr(b, s.X))
		} else {
			g.printf("return;\n")
		}
	default:
		g.printf("/* unsupported statement %T */\n", s)
	}
}

func (g *cgen) inlineStmt(b *kernel.Binding, s ast.Stmt) string {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return g.expr(b, s.X)
	case *ast.VarDecl:
		if s.Init != nil {
			vi := g.m.Info.VarOf[s]
			if vi != nil && b.Vars[vi] != nil {
				return fmt.Sprintf("%s = %s", g.vars[b.Vars[vi]], g.expr(b, s.Init))
			}
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Expressions: instance-qualified names map to the generated storage.

func (g *cgen) expr(b *kernel.Binding, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		switch obj := g.m.Info.UseOf(e).(type) {
		case *sem.VarInfo:
			if kv := b.Vars[obj]; kv != nil {
				return g.vars[kv]
			}
			return e.Name // function parameter or local
		case *sem.SignalInfo:
			if sig := b.Sigs[obj]; sig != nil {
				return g.sigs[sig] + "_val"
			}
			return e.Name + "_val"
		case *sem.ConstInfo:
			return fmt.Sprintf("%d", obj.Value)
		}
		return e.Name
	case *ast.BasicLit:
		return e.Value
	case *ast.Paren:
		return "(" + g.expr(b, e.X) + ")"
	case *ast.Unary:
		if e.Op == token.TILDE && g.m.Info.TypeOf(e.X) == ctypes.Bool {
			// ECL's ~ on a bool is logical negation (Figure 3's
			// "if (~crc_ok)"); C's ~ would make it always true.
			return "!" + g.expr(b, e.X)
		}
		return e.Op.String() + g.expr(b, e.X)
	case *ast.Postfix:
		return g.expr(b, e.X) + e.Op.String()
	case *ast.Binary:
		if e.Op == token.COMMA {
			return g.expr(b, e.X) + ", " + g.expr(b, e.Y)
		}
		return fmt.Sprintf("(%s %s %s)", g.expr(b, e.X), e.Op, g.expr(b, e.Y))
	case *ast.Assign:
		return fmt.Sprintf("%s %s %s", g.expr(b, e.LHS), e.Op, g.expr(b, e.RHS))
	case *ast.Cond:
		return fmt.Sprintf("(%s ? %s : %s)", g.expr(b, e.CondX), g.expr(b, e.Then), g.expr(b, e.Else))
	case *ast.Call:
		var args []string
		for _, a := range e.Args {
			args = append(args, g.expr(b, a))
		}
		return fmt.Sprintf("%s(%s)", e.Fun.Name, strings.Join(args, ", "))
	case *ast.Index:
		return fmt.Sprintf("%s[%s]", g.expr(b, e.X), g.expr(b, e.Sub))
	case *ast.Member:
		sep := "."
		if e.Arrow {
			sep = "->"
		}
		return g.expr(b, e.X) + sep + e.Name
	case *ast.Cast:
		t := g.m.Info.TypeOfExpr[e.Type]
		if t != nil {
			// The array-reinterpret idiom needs explicit bytes in C:
			// the leading ones, never more than the array holds.
			if xt := g.m.Info.TypeOf(e.X); xt != nil && xt.Kind() == ctypes.KindArray {
				return fmt.Sprintf("ecl_ld_be((const unsigned char *)%s, %d)",
					g.expr(b, e.X), min(t.Size(), xt.Size()))
			}
			return fmt.Sprintf("(%s) %s", CTypeName(t), g.expr(b, e.X))
		}
		return g.expr(b, e.X)
	case *ast.SizeofExpr:
		if e.Type != nil {
			t := g.m.Info.TypeOfExpr[e.Type]
			if t != nil {
				return fmt.Sprintf("%d", t.Size())
			}
		}
		return fmt.Sprintf("sizeof(%s)", g.expr(b, e.X))
	}
	return "/*?*/0"
}
