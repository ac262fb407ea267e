package cgen

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/kernel"
	"repro/internal/sem"
	"repro/internal/token"
)

// This file compiles C expressions to Go expressions over the
// byte-backed storage. Every value expression compiles to an int64
// Go expression that holds the C value sign- or zero-extended. The
// generated code must run standalone, so it spells out its own
// operators; the edge-value conformance table pins them to cval's
// kernel (int32/uint32 arithmetic, big-endian aggregate layout).

func (g *gogen) varSlot(b *kernel.Binding, vi *sem.VarInfo) (string, ctypes.Type, error) {
	kv := b.Vars[vi]
	if kv == nil {
		return "", nil, fmt.Errorf("variable %q unbound", vi.Name)
	}
	off, ok := g.varOff[kv]
	if !ok {
		return "", nil, fmt.Errorf("variable %q has no storage", kv.Name)
	}
	return fmt.Sprintf("m.mem[%d:%d]", off, off+kv.Type.Size()), kv.Type, nil
}

// lvalue compiles an expression to a Go expression producing the byte
// slice backing the referenced storage.
func (g *gogen) lvalue(b *kernel.Binding, e ast.Expr) (string, error) {
	switch e := e.(type) {
	case *ast.Ident:
		switch obj := g.info.UseOf(e).(type) {
		case *sem.VarInfo:
			slot, _, err := g.varSlot(b, obj)
			return slot, err
		case *sem.SignalInfo:
			sig := b.Sigs[obj]
			if sig == nil || sig.Type == nil {
				return "", fmt.Errorf("signal %q has no value storage", e.Name)
			}
			return g.sigSlot(sig), nil
		}
		return "", fmt.Errorf("%q is not addressable", e.Name)
	case *ast.Paren:
		return g.lvalue(b, e.X)
	case *ast.Index:
		base, err := g.lvalue(b, e.X)
		if err != nil {
			return "", err
		}
		bt := g.info.TypeOf(e.X)
		at, ok := bt.(*ctypes.ArrayType)
		if !ok {
			return "", fmt.Errorf("indexing non-array %s", bt)
		}
		sub, err := g.expr(b, e.Sub)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("idx(%s, %d, %s)", base, at.Elem.Size(), sub), nil
	case *ast.Member:
		if e.Arrow {
			return "", fmt.Errorf("pointer member access unsupported by the Go backend")
		}
		base, err := g.lvalue(b, e.X)
		if err != nil {
			return "", err
		}
		st, ok := g.info.TypeOf(e.X).(*ctypes.StructType)
		if !ok {
			return "", fmt.Errorf("member access on non-struct")
		}
		f := st.Field(e.Name)
		if f == nil {
			return "", fmt.Errorf("no field %q", e.Name)
		}
		return fmt.Sprintf("fld(%s, %d, %d)", base, f.Offset, f.Type.Size()), nil
	}
	return "", fmt.Errorf("expression %T is not addressable", e)
}

// load produces an int64 read of a byte slice according to type.
func load(slot string, t ctypes.Type) string {
	if ctypes.IsUnsigned(t) || t == ctypes.Bool {
		return fmt.Sprintf("ldu(%s)", slot)
	}
	return fmt.Sprintf("lds(%s)", slot)
}

// expr compiles a value expression to int64 Go source.
func (g *gogen) expr(b *kernel.Binding, e ast.Expr) (string, error) {
	switch e := e.(type) {
	case *ast.Ident:
		switch obj := g.info.UseOf(e).(type) {
		case *sem.VarInfo:
			if g.locals != nil {
				if name, ok := g.locals[obj]; ok {
					return name, nil
				}
			}
			slot, t, err := g.varSlot(b, obj)
			if err != nil {
				return "", err
			}
			return load(slot, t), nil
		case *sem.SignalInfo:
			sig := b.Sigs[obj]
			if sig == nil || sig.Type == nil {
				return "", fmt.Errorf("signal %q has no value", e.Name)
			}
			return load(g.sigSlot(sig), sig.Type), nil
		case *sem.ConstInfo:
			return fmt.Sprintf("int64(%d)", obj.Value), nil
		}
		return "", fmt.Errorf("cannot compile identifier %q", e.Name)

	case *ast.BasicLit:
		v, ok := g.m.Info.ConstEval(e)
		if !ok {
			return "", fmt.Errorf("unsupported literal %q", e.Value)
		}
		return fmt.Sprintf("int64(%d)", v), nil

	case *ast.Paren:
		inner, err := g.expr(b, e.X)
		if err != nil {
			return "", err
		}
		return "(" + inner + ")", nil

	case *ast.Unary:
		return g.unary(b, e)

	case *ast.Binary:
		return g.binary(b, e)

	case *ast.Cond:
		c, err := g.expr(b, e.CondX)
		if err != nil {
			return "", err
		}
		a, err := g.expr(b, e.Then)
		if err != nil {
			return "", err
		}
		d, err := g.expr(b, e.Else)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("sel(%s, %s, %s)", c, a, d), nil

	case *ast.Call:
		fi, ok := g.info.UseOf(e.Fun).(*sem.FuncInfo)
		if !ok {
			return "", fmt.Errorf("call of non-function %q", e.Fun.Name)
		}
		var args []string
		for i, a := range e.Args {
			av, err := g.expr(b, a)
			if err != nil {
				return "", err
			}
			if i < len(fi.Params) {
				av = g.truncFor(fi.Params[i].Type, av)
			}
			args = append(args, av)
		}
		return fmt.Sprintf("m.fn_%s(%s)", sanitize(fi.Name), strings.Join(args, ", ")), nil

	case *ast.Index, *ast.Member:
		t := g.info.TypeOf(e)
		if t == nil || isAggregateType(t) {
			return "", fmt.Errorf("aggregate value used where scalar expected")
		}
		lv, err := g.lvalue(b, e)
		if err != nil {
			return "", err
		}
		return load(lv, t), nil

	case *ast.Cast:
		to := g.m.Info.TypeOfExpr[e.Type]
		if to == nil {
			return "", fmt.Errorf("unresolved cast type")
		}
		if xt := g.info.TypeOf(e.X); xt != nil && xt.Kind() == ctypes.KindArray {
			return g.reinterpret(b, e.X, to)
		}
		x, err := g.expr(b, e.X)
		if err != nil {
			return "", err
		}
		return g.truncFor(to, x), nil

	case *ast.SizeofExpr:
		if e.Type != nil {
			t := g.m.Info.TypeOfExpr[e.Type]
			if t != nil {
				return fmt.Sprintf("int64(%d)", t.Size()), nil
			}
		}
		if t := g.info.TypeOf(e.X); t != nil {
			return fmt.Sprintf("int64(%d)", t.Size()), nil
		}
		return "", fmt.Errorf("unresolved sizeof")

	case *ast.Assign, *ast.Postfix:
		return "", fmt.Errorf("side effects nested in expressions are unsupported by the Go backend")
	}
	return "", fmt.Errorf("cannot compile expression %T", e)
}

func (g *gogen) unary(b *kernel.Binding, e *ast.Unary) (string, error) {
	if e.Op == token.INC || e.Op == token.DEC {
		return "", fmt.Errorf("side effects nested in expressions are unsupported by the Go backend")
	}
	x, err := g.expr(b, e.X)
	if err != nil {
		return "", err
	}
	xt := g.info.TypeOf(e.X)
	switch e.Op {
	case token.ADD:
		return x, nil
	case token.SUB:
		return g.wrap(xt, fmt.Sprintf("-(%s)", x)), nil
	case token.NOT:
		return fmt.Sprintf("b2i((%s) == 0)", x), nil
	case token.TILDE:
		if xt == ctypes.Bool {
			return fmt.Sprintf("b2i((%s) == 0)", x), nil
		}
		return g.wrap(xt, fmt.Sprintf("^(%s)", x)), nil
	}
	return "", fmt.Errorf("unsupported unary operator %q", e.Op)
}

func (g *gogen) binary(b *kernel.Binding, e *ast.Binary) (string, error) {
	switch e.Op {
	case token.COMMA:
		return "", fmt.Errorf("comma expression in value position unsupported by the Go backend")
	case token.LAND, token.LOR:
		x, err := g.expr(b, e.X)
		if err != nil {
			return "", err
		}
		y, err := g.expr(b, e.Y)
		if err != nil {
			return "", err
		}
		op := "&&"
		if e.Op == token.LOR {
			op = "||"
		}
		return fmt.Sprintf("b2i((%s) != 0 %s (%s) != 0)", x, op, y), nil
	}

	x, xt, err := g.operand(b, e.X, e.Y)
	if err != nil {
		return "", err
	}
	y, yt, err := g.operand(b, e.Y, e.X)
	if err != nil {
		return "", err
	}
	var common ctypes.Type = ctypes.Int
	if xt != nil && yt != nil && ctypes.IsArithmetic(xt) && ctypes.IsArithmetic(yt) {
		common = ctypes.UsualArithmetic(xt, yt)
	}
	unsigned := ctypes.IsUnsigned(common)

	switch e.Op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		var op string
		switch e.Op {
		case token.EQL:
			op = "=="
		case token.NEQ:
			op = "!="
		case token.LSS:
			op = "<"
		case token.GTR:
			op = ">"
		case token.LEQ:
			op = "<="
		case token.GEQ:
			op = ">="
		}
		if unsigned {
			return fmt.Sprintf("b2i(uint32(%s) %s uint32(%s))", x, op, y), nil
		}
		return fmt.Sprintf("b2i((%s) %s (%s))", x, op, y), nil
	case token.SHL:
		if unsigned {
			return fmt.Sprintf("w32u(int64(uint32(%s) << (uint(%s) & 31)))", x, y), nil
		}
		return fmt.Sprintf("w32s((%s) << (uint(%s) & 31))", x, y), nil
	case token.SHR:
		if unsigned {
			return fmt.Sprintf("w32u(int64(uint32(%s) >> (uint(%s) & 31)))", x, y), nil
		}
		return fmt.Sprintf("w32s(int64(int32(%s) >> (uint(%s) & 31)))", x, y), nil
	case token.QUO, token.REM:
		op := "/"
		if e.Op == token.REM {
			op = "%"
		}
		if unsigned {
			return fmt.Sprintf("w32u(int64(uint32(%s) %s uint32(%s)))", x, op, y), nil
		}
		return fmt.Sprintf("w32s(int64(int32(%s) %s int32(%s)))", x, op, y), nil
	default:
		var op string
		switch e.Op {
		case token.ADD:
			op = "+"
		case token.SUB:
			op = "-"
		case token.MUL:
			op = "*"
		case token.AND:
			op = "&"
		case token.OR:
			op = "|"
		case token.XOR:
			op = "^"
		default:
			return "", fmt.Errorf("unsupported binary operator %q", e.Op)
		}
		if unsigned {
			return fmt.Sprintf("w32u(int64(uint32(%s) %s uint32(%s)))", x, op, y), nil
		}
		return fmt.Sprintf("w32s(int64(int32(%s) %s int32(%s)))", x, op, y), nil
	}
}

// operand compiles e as one side of a binary operator against other,
// returning its text and type. A byte array compared against an
// integer reads as that integer's promoted type (the Figure 2 idiom).
func (g *gogen) operand(b *kernel.Binding, e, other ast.Expr) (string, ctypes.Type, error) {
	t, ot := g.info.TypeOf(e), g.info.TypeOf(other)
	if t != nil && t.Kind() == ctypes.KindArray && ot != nil && ctypes.IsInteger(ot) {
		to := ctypes.Promote(ot)
		x, err := g.reinterpret(b, e, to)
		return x, to, err
	}
	x, err := g.expr(b, e)
	return x, t, err
}

// reinterpret loads byte array e as an integer of type to: its leading
// bytes, right-aligned in the target, as cval.Convert reads them.
func (g *gogen) reinterpret(b *kernel.Binding, e ast.Expr, to ctypes.Type) (string, error) {
	lv, err := g.lvalue(b, e)
	if err != nil {
		return "", err
	}
	n := min(to.Size(), g.info.TypeOf(e).Size())
	return g.truncFor(to, fmt.Sprintf("ldu((%s)[:%d])", lv, n)), nil
}

func (g *gogen) wrap(t ctypes.Type, v string) string {
	if t != nil && ctypes.IsUnsigned(ctypes.Promote(t)) {
		return fmt.Sprintf("w32u(%s)", v)
	}
	return fmt.Sprintf("w32s(%s)", v)
}
