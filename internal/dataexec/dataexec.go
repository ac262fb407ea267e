// Package dataexec executes ECL's C data code: bound expressions,
// inline assignments, extracted data functions, and calls to plain C
// functions, against a value environment (internal/cval). The
// reference interpreter runs its data actions through it, and the EFSM
// compiler folds constant guards with it; compiled EFSMs run the same
// semantics on the table VM (internal/efsm/table), which also keeps
// the cost accounting.
package dataexec

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/kernel"
	"repro/internal/sem"
	"repro/internal/token"
)

// Env provides variable and signal-value storage.
type Env interface {
	// VarValue returns a mutable view of the variable's storage.
	VarValue(*kernel.Var) (cval.Value, error)
	// SignalValue returns a view of the signal's current value.
	SignalValue(*kernel.Signal) (cval.Value, error)
}

// Limits bounds data execution to catch runaway loops in user code.
type Limits struct {
	// MaxSteps is the maximum number of statements executed per
	// ExecDataFunc / per top-level Exec call. Zero means the default.
	MaxSteps int
}

// DefaultMaxSteps bounds one atomic data execution.
const DefaultMaxSteps = 10_000_000

// Evaluator executes data code. Create one per execution context; it
// is not safe for concurrent use.
type Evaluator struct {
	Info   *sem.Info
	Env    Env
	Limits Limits

	steps  int
	frames []map[*sem.VarInfo]cval.Value
}

// New returns an evaluator over the environment.
func New(info *sem.Info, env Env) *Evaluator {
	return &Evaluator{Info: info, Env: env}
}

type ctrl int

const (
	ctrlNormal ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

func (ev *Evaluator) step() error {
	ev.steps++
	max := ev.Limits.MaxSteps
	if max == 0 {
		max = DefaultMaxSteps
	}
	if ev.steps > max {
		return fmt.Errorf("data execution exceeded %d steps (runaway loop?)", max)
	}
	return nil
}

// ExecDataFunc runs an extracted data function atomically.
func (ev *Evaluator) ExecDataFunc(f *kernel.DataFunc) error {
	ev.steps = 0
	c, _, err := ev.execStmts(f.B, f.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", f.Name, err)
	}
	if c == ctrlBreak || c == ctrlContinue {
		return fmt.Errorf("%s: break/continue escaped extracted data code", f.Name)
	}
	return nil
}

// ExecAssign performs one inline assignment action.
func (ev *Evaluator) ExecAssign(lhs, rhs kernel.Expr) error {
	ev.steps = 0
	dst, err := ev.lvalue(lhs.B, lhs.E)
	if err != nil {
		return err
	}
	src, err := ev.eval(rhs.B, rhs.E)
	if err != nil {
		return err
	}
	return dst.Assign(src)
}

// ExecEval evaluates an expression for its side effects.
func (ev *Evaluator) ExecEval(x kernel.Expr) error {
	ev.steps = 0
	_, err := ev.eval(x.B, x.E)
	return err
}

// Eval evaluates a bound expression to a value.
func (ev *Evaluator) Eval(e kernel.Expr) (cval.Value, error) {
	ev.steps = 0
	return ev.eval(e.B, e.E)
}

// EvalBool evaluates a bound expression as a C truth value.
func (ev *Evaluator) EvalBool(e kernel.Expr) (bool, error) {
	v, err := ev.Eval(e)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

// ---------------------------------------------------------------------------
// Statements

func (ev *Evaluator) execStmts(b *kernel.Binding, stmts []ast.Stmt) (ctrl, cval.Value, error) {
	for _, s := range stmts {
		c, v, err := ev.execStmt(b, s)
		if err != nil || c != ctrlNormal {
			return c, v, err
		}
	}
	return ctrlNormal, cval.Value{}, nil
}

func (ev *Evaluator) execStmt(b *kernel.Binding, s ast.Stmt) (ctrl, cval.Value, error) {
	if err := ev.step(); err != nil {
		return ctrlNormal, cval.Value{}, err
	}
	switch s := s.(type) {
	case nil, *ast.Empty:
		return ctrlNormal, cval.Value{}, nil

	case *ast.Block:
		return ev.execStmts(b, s.Stmts)

	case *ast.VarDecl:
		vi := ev.Info.VarOf[s]
		if vi == nil {
			return ctrlNormal, cval.Value{}, fmt.Errorf("unresolved declaration of %q", s.Name)
		}
		// Function-local variables live in the current frame; module
		// variables live in the environment.
		if len(ev.frames) > 0 {
			ev.frames[len(ev.frames)-1][vi] = cval.New(vi.Type)
		}
		if s.Init != nil {
			dst, err := ev.varView(b, vi)
			if err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			src, err := ev.eval(b, s.Init)
			if err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			if err := dst.Assign(src); err != nil {
				return ctrlNormal, cval.Value{}, err
			}
		}
		return ctrlNormal, cval.Value{}, nil

	case *ast.ExprStmt:
		_, err := ev.eval(b, s.X)
		return ctrlNormal, cval.Value{}, err

	case *ast.If:
		cond, err := ev.eval(b, s.Cond)
		if err != nil {
			return ctrlNormal, cval.Value{}, err
		}
		if cond.Bool() {
			return ev.execStmt(b, s.Then)
		}
		if s.Else != nil {
			return ev.execStmt(b, s.Else)
		}
		return ctrlNormal, cval.Value{}, nil

	case *ast.While:
		for {
			if err := ev.step(); err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			cond, err := ev.eval(b, s.Cond)
			if err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			if !cond.Bool() {
				return ctrlNormal, cval.Value{}, nil
			}
			c, v, err := ev.execStmt(b, s.Body)
			if err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			switch c {
			case ctrlBreak:
				return ctrlNormal, cval.Value{}, nil
			case ctrlReturn:
				return c, v, nil
			}
		}

	case *ast.DoWhile:
		for {
			if err := ev.step(); err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			c, v, err := ev.execStmt(b, s.Body)
			if err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			switch c {
			case ctrlBreak:
				return ctrlNormal, cval.Value{}, nil
			case ctrlReturn:
				return c, v, nil
			}
			cond, err := ev.eval(b, s.Cond)
			if err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			if !cond.Bool() {
				return ctrlNormal, cval.Value{}, nil
			}
		}

	case *ast.For:
		if s.Init != nil {
			if c, v, err := ev.execStmt(b, s.Init); err != nil || c == ctrlReturn {
				return c, v, err
			}
		}
		for {
			if err := ev.step(); err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			if s.Cond != nil {
				cond, err := ev.eval(b, s.Cond)
				if err != nil {
					return ctrlNormal, cval.Value{}, err
				}
				if !cond.Bool() {
					return ctrlNormal, cval.Value{}, nil
				}
			}
			c, v, err := ev.execStmt(b, s.Body)
			if err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			if c == ctrlBreak {
				return ctrlNormal, cval.Value{}, nil
			}
			if c == ctrlReturn {
				return c, v, nil
			}
			if s.Post != nil {
				if _, _, err := ev.execStmt(b, s.Post); err != nil {
					return ctrlNormal, cval.Value{}, err
				}
			}
		}

	case *ast.Switch:
		tag, err := ev.eval(b, s.Tag)
		if err != nil {
			return ctrlNormal, cval.Value{}, err
		}
		// Enter at the first clause with a matching case value
		// (non-constant values never match), else at the default, then
		// run clauses in order until a break (C fallthrough).
		tagInt := tag.Int()
		start, def := -1, -1
	scan:
		for i, c := range s.Cases {
			if c.Values == nil {
				if def < 0 {
					def = i
				}
				continue
			}
			for _, vexpr := range c.Values {
				if v, ok := ev.Info.ConstEval(vexpr); ok && v == tagInt {
					start = i
					break scan
				}
			}
		}
		if start < 0 {
			start = def
		}
		if start < 0 {
			return ctrlNormal, cval.Value{}, nil
		}
		for _, c := range s.Cases[start:] {
			cc, v, err := ev.execStmts(b, c.Body)
			if err != nil {
				return ctrlNormal, cval.Value{}, err
			}
			switch cc {
			case ctrlBreak:
				return ctrlNormal, cval.Value{}, nil
			case ctrlReturn, ctrlContinue:
				return cc, v, nil
			}
		}
		return ctrlNormal, cval.Value{}, nil

	case *ast.Break:
		return ctrlBreak, cval.Value{}, nil
	case *ast.Continue:
		return ctrlContinue, cval.Value{}, nil

	case *ast.Return:
		if s.X == nil {
			return ctrlReturn, cval.Value{}, nil
		}
		v, err := ev.eval(b, s.X)
		return ctrlReturn, v, err
	}
	return ctrlNormal, cval.Value{}, fmt.Errorf("cannot execute %T in data context", s)
}

// ---------------------------------------------------------------------------
// Expressions

func (ev *Evaluator) varView(b *kernel.Binding, vi *sem.VarInfo) (cval.Value, error) {
	for i := len(ev.frames) - 1; i >= 0; i-- {
		if v, ok := ev.frames[i][vi]; ok {
			return v, nil
		}
	}
	kv := b.Vars[vi]
	if kv == nil {
		return cval.Value{}, fmt.Errorf("variable %q unbound in instance %s", vi.Name, b.Label)
	}
	return ev.Env.VarValue(kv)
}

func (ev *Evaluator) lvalue(b *kernel.Binding, e ast.Expr) (cval.Value, error) {
	switch e := e.(type) {
	case *ast.Ident:
		vi, ok := ev.Info.UseOf(e).(*sem.VarInfo)
		if !ok {
			return cval.Value{}, fmt.Errorf("%q is not an assignable variable", e.Name)
		}
		return ev.varView(b, vi)
	case *ast.Paren:
		return ev.lvalue(b, e.X)
	case *ast.Index:
		arr, err := ev.lvalue(b, e.X)
		if err != nil {
			return cval.Value{}, err
		}
		idx, err := ev.eval(b, e.Sub)
		if err != nil {
			return cval.Value{}, err
		}
		return arr.Index(int(idx.Int()))
	case *ast.Member:
		if e.Arrow {
			return cval.Value{}, fmt.Errorf("pointer member access not supported at runtime")
		}
		s, err := ev.lvalue(b, e.X)
		if err != nil {
			return cval.Value{}, err
		}
		return s.Field(e.Name)
	}
	return cval.Value{}, fmt.Errorf("expression is not assignable")
}

func (ev *Evaluator) eval(b *kernel.Binding, e ast.Expr) (cval.Value, error) {
	if err := ev.step(); err != nil {
		return cval.Value{}, err
	}
	switch e := e.(type) {
	case *ast.Ident:
		switch obj := ev.Info.UseOf(e).(type) {
		case *sem.VarInfo:
			return ev.varView(b, obj)
		case *sem.SignalInfo:
			sig := b.Sigs[obj]
			if sig == nil {
				return cval.Value{}, fmt.Errorf("signal %q unbound in instance %s", e.Name, b.Label)
			}
			return ev.Env.SignalValue(sig)
		case *sem.ConstInfo:
			return cval.FromInt(ctypes.Int, obj.Value), nil
		}
		return cval.Value{}, fmt.Errorf("cannot evaluate %q", e.Name)

	case *ast.BasicLit:
		switch e.Kind {
		case token.INT:
			v, ok := ev.Info.ConstEval(e)
			if !ok {
				return cval.Value{}, fmt.Errorf("bad integer literal %q", e.Value)
			}
			return cval.FromInt(ctypes.Int, v), nil
		case token.CHAR:
			v, ok := ev.Info.ConstEval(e)
			if !ok {
				return cval.Value{}, fmt.Errorf("bad char literal %q", e.Value)
			}
			return cval.FromInt(ctypes.Char, v), nil
		case token.FLOAT:
			var f float64
			if _, err := fmt.Sscanf(e.Value, "%g", &f); err != nil {
				return cval.Value{}, fmt.Errorf("bad float literal %q", e.Value)
			}
			return cval.FromFloat(ctypes.Double, f), nil
		}
		return cval.Value{}, fmt.Errorf("unsupported literal %q", e.Value)

	case *ast.Paren:
		return ev.eval(b, e.X)

	case *ast.Unary:
		return ev.evalUnary(b, e)

	case *ast.Postfix:
		dst, err := ev.lvalue(b, e.X)
		if err != nil {
			return cval.Value{}, err
		}
		old := dst.Clone()
		delta := int64(1)
		if e.Op == token.DEC {
			delta = -1
		}
		dst.SetInt(dst.Int() + delta)
		return old, nil

	case *ast.Binary:
		return ev.evalBinary(b, e)

	case *ast.Assign:
		return ev.evalAssign(b, e)

	case *ast.Cond:
		c, err := ev.eval(b, e.CondX)
		if err != nil {
			return cval.Value{}, err
		}
		if c.Bool() {
			return ev.eval(b, e.Then)
		}
		return ev.eval(b, e.Else)

	case *ast.Call:
		return ev.evalCall(b, e)

	case *ast.Index:
		arr, err := ev.eval(b, e.X)
		if err != nil {
			return cval.Value{}, err
		}
		idx, err := ev.eval(b, e.Sub)
		if err != nil {
			return cval.Value{}, err
		}
		return arr.Index(int(idx.Int()))

	case *ast.Member:
		if e.Arrow {
			return cval.Value{}, fmt.Errorf("pointer member access not supported at runtime")
		}
		s, err := ev.eval(b, e.X)
		if err != nil {
			return cval.Value{}, err
		}
		return s.Field(e.Name)

	case *ast.Cast:
		x, err := ev.eval(b, e.X)
		if err != nil {
			return cval.Value{}, err
		}
		to := ev.Info.TypeOfExpr[e.Type]
		if to == nil {
			return cval.Value{}, fmt.Errorf("unresolved cast target type")
		}
		return cval.Convert(x, to)

	case *ast.SizeofExpr:
		if e.Type != nil {
			t := ev.Info.TypeOfExpr[e.Type]
			if t == nil {
				return cval.Value{}, fmt.Errorf("unresolved sizeof type")
			}
			return cval.FromInt(ctypes.UInt, int64(t.Size())), nil
		}
		t := ev.Info.TypeOf(e.X)
		if t == nil {
			return cval.Value{}, fmt.Errorf("unresolved sizeof operand")
		}
		return cval.FromInt(ctypes.UInt, int64(t.Size())), nil
	}
	return cval.Value{}, fmt.Errorf("cannot evaluate %T", e)
}

func (ev *Evaluator) evalUnary(b *kernel.Binding, e *ast.Unary) (cval.Value, error) {
	switch e.Op {
	case token.INC, token.DEC:
		dst, err := ev.lvalue(b, e.X)
		if err != nil {
			return cval.Value{}, err
		}
		delta := int64(1)
		if e.Op == token.DEC {
			delta = -1
		}
		dst.SetInt(dst.Int() + delta)
		return dst.Clone(), nil
	}
	x, err := ev.eval(b, e.X)
	if err != nil {
		return cval.Value{}, err
	}
	switch e.Op {
	case token.ADD:
		return x, nil
	case token.SUB:
		if x.Type.Kind() == ctypes.KindFloat {
			return cval.FromFloat(x.Type, -x.Float()), nil
		}
		return cval.FromInt(ctypes.Promote(x.Type), -x.Int()), nil
	case token.NOT:
		return cval.FromInt(ctypes.Int, b2i(!x.Bool())), nil
	case token.TILDE:
		// On bool: ECL logical negation (the paper's "if (~crc_ok)").
		if x.Type == ctypes.Bool {
			return cval.FromBool(!x.Bool()), nil
		}
		return cval.FromInt(ctypes.Promote(x.Type), ^x.Int()), nil
	}
	return cval.Value{}, fmt.Errorf("unsupported unary operator %q", e.Op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (ev *Evaluator) evalAssign(b *kernel.Binding, e *ast.Assign) (cval.Value, error) {
	dst, err := ev.lvalue(b, e.LHS)
	if err != nil {
		return cval.Value{}, err
	}
	src, err := ev.eval(b, e.RHS)
	if err != nil {
		return cval.Value{}, err
	}
	if e.Op == token.ASSIGN {
		if err := dst.Assign(src); err != nil {
			return cval.Value{}, err
		}
		return dst, nil
	}
	binOp, ok := e.Op.AssignBinOp()
	if !ok {
		return cval.Value{}, fmt.Errorf("unsupported assignment operator %q", e.Op)
	}
	res, err := arith(binOp, dst.Clone(), src)
	if err != nil {
		return cval.Value{}, err
	}
	if err := dst.Assign(res); err != nil {
		return cval.Value{}, err
	}
	return dst, nil
}

func (ev *Evaluator) evalBinary(b *kernel.Binding, e *ast.Binary) (cval.Value, error) {
	switch e.Op {
	case token.COMMA:
		if _, err := ev.eval(b, e.X); err != nil {
			return cval.Value{}, err
		}
		return ev.eval(b, e.Y)
	case token.LAND:
		x, err := ev.eval(b, e.X)
		if err != nil {
			return cval.Value{}, err
		}
		if !x.Bool() {
			return cval.FromInt(ctypes.Int, 0), nil
		}
		y, err := ev.eval(b, e.Y)
		if err != nil {
			return cval.Value{}, err
		}
		return cval.FromInt(ctypes.Int, b2i(y.Bool())), nil
	case token.LOR:
		x, err := ev.eval(b, e.X)
		if err != nil {
			return cval.Value{}, err
		}
		if x.Bool() {
			return cval.FromInt(ctypes.Int, 1), nil
		}
		y, err := ev.eval(b, e.Y)
		if err != nil {
			return cval.Value{}, err
		}
		return cval.FromInt(ctypes.Int, b2i(y.Bool())), nil
	}
	x, err := ev.eval(b, e.X)
	if err != nil {
		return cval.Value{}, err
	}
	y, err := ev.eval(b, e.Y)
	if err != nil {
		return cval.Value{}, err
	}
	return arith(e.Op, x, y)
}

// arith applies a C binary operator through cval's scalar kernel.
// Comparing an integer against a byte array reinterprets the array as
// the integer's promoted type (the Figure 2 idiom).
func arith(op token.Kind, x, y cval.Value) (cval.Value, error) {
	if x.Type.Kind() == ctypes.KindArray {
		conv, err := cval.Convert(x, promoteFor(y.Type))
		if err != nil {
			return cval.Value{}, err
		}
		x = conv
	}
	if y.Type.Kind() == ctypes.KindArray {
		conv, err := cval.Convert(y, promoteFor(x.Type))
		if err != nil {
			return cval.Value{}, err
		}
		y = conv
	}
	bits, _, sp, err := cval.Binary(op, x.Bits(), cval.SpaceOf(x.Type), y.Bits(), cval.SpaceOf(y.Type))
	if err != nil {
		return cval.Value{}, err
	}
	return cval.FromBits(sp.Type(), bits), nil
}

func promoteFor(t ctypes.Type) ctypes.Type {
	if ctypes.IsArithmetic(t) {
		return ctypes.Promote(t)
	}
	return ctypes.Int
}

// ---------------------------------------------------------------------------
// C function calls

func (ev *Evaluator) evalCall(b *kernel.Binding, e *ast.Call) (cval.Value, error) {
	fi, ok := ev.Info.UseOf(e.Fun).(*sem.FuncInfo)
	if !ok {
		return cval.Value{}, fmt.Errorf("call of non-function %q", e.Fun.Name)
	}
	if fi.Decl.Body == nil {
		return cval.Value{}, fmt.Errorf("function %q has no body", fi.Name)
	}
	if len(ev.frames) >= 64 {
		return cval.Value{}, fmt.Errorf("call depth limit exceeded in %q", fi.Name)
	}
	frame := make(map[*sem.VarInfo]cval.Value, len(fi.Params))
	for i, p := range fi.Params {
		if i >= len(e.Args) {
			return cval.Value{}, fmt.Errorf("too few arguments to %q", fi.Name)
		}
		av, err := ev.eval(b, e.Args[i])
		if err != nil {
			return cval.Value{}, err
		}
		slot := cval.New(p.Type)
		if err := slot.Assign(av); err != nil {
			return cval.Value{}, fmt.Errorf("argument %d of %q: %w", i+1, fi.Name, err)
		}
		frame[p] = slot
	}
	ev.frames = append(ev.frames, frame)
	c, v, err := ev.execStmts(b, fi.Decl.Body.Stmts)
	ev.frames = ev.frames[:len(ev.frames)-1]
	if err != nil {
		return cval.Value{}, err
	}
	if c == ctrlReturn && v.IsValid() {
		return v, nil
	}
	if fi.Ret == ctypes.Void {
		return cval.New(ctypes.Void), nil
	}
	return cval.New(fi.Ret), nil
}
