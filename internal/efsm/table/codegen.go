package table

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/cval"
	"repro/internal/efsm"
	"repro/internal/kernel"
	"repro/internal/sem"
	"repro/internal/token"
)

// ---------------------------------------------------------------------------
// Reactive layer: decision trees and actions

// tree compiles one decision (sub)tree. nodes counts the tree nodes a
// reaction visits to get here, this one included: each leaf's opEnd
// records it as the reaction's depth.
func (c *compiler) tree(n efsm.Node, st *efsm.State, nodes uint64) {
	switch n := n.(type) {
	case *efsm.Leaf:
		next := int32(-1)
		if n.To != nil {
			i, ok := c.stateIdx[n.To]
			if !ok {
				c.emitErr("state s%d: successor not in machine", st.ID)
				return
			}
			next = i
		}
		term := int32(0)
		if n.Terminal {
			term = 1
		}
		c.emitImm(opEnd, next, term, nodes)

	case *efsm.ActNode:
		c.action(n.Act, st)
		c.tree(n.Next, st, nodes+1)

	case *efsm.InputBranch:
		si, ok := c.sigIdx[n.Sig]
		if !ok {
			c.emitErr("state s%d: unknown signal %s", st.ID, n.Sig.Name)
			return
		}
		br := c.emit(opBranchIn, si, 0)
		c.charge(br, 2)             // test + branch
		c.tree(n.Then, st, nodes+1) // every path ends in opEnd/opError: no join
		c.patchB(br, c.here())
		c.tree(n.Else, st, nodes+1)

	case *efsm.DataBranch:
		c.expr(ectx{b: n.Expr.B}, n.Expr.E)
		jf := c.emit(opJumpFalse, 0, 0)
		c.charge(jf, 2)
		c.tree(n.Then, st, nodes+1)
		c.patchA(jf, c.here())
		c.tree(n.Else, st, nodes+1)

	default:
		c.emitErr("state s%d: nil decision-tree node", st.ID)
	}
}

func (c *compiler) action(a efsm.Action, st *efsm.State) {
	switch a.Kind {
	case efsm.ActEmit:
		mi := c.emitMetaFor(a.Sig)
		if a.Value != nil {
			c.expr(ectx{b: a.Value.B}, a.Value.E)
			if c.p.emits[mi].valOff < 0 {
				c.emitErr("emit %s: signal carries no value slot", a.Sig.Name)
				c.adj(-1)
				return
			}
			c.charge(c.emit(opEmit, mi, 1), 3)
		} else {
			c.charge(c.emit(opEmit, mi, 0), 3)
		}
	case efsm.ActAssign:
		ti := c.lvalue(ectx{b: a.LHS.B}, a.LHS.E)
		c.expr(ectx{b: a.RHS.B}, a.RHS.E)
		c.charge(c.emit(opAssign, 0, 0), c.storeUnits(ti))
		c.emit(opDrop, 0, 0)
	case efsm.ActEval:
		c.expr(ectx{b: a.X.B}, a.X.E)
		c.emit(opDrop, 0, 0)
	case efsm.ActCall:
		if a.F == nil {
			c.emitErr("state s%d: nil data function", st.ID)
			return
		}
		c.charge(c.emit(opCallData, c.dataFuncFor(a.F), 0), 4) // call overhead
	default:
		c.emitErr("state s%d: unknown action kind %d", st.ID, a.Kind)
	}
}

func (c *compiler) emitMetaFor(sig *kernel.Signal) int32 {
	if i, ok := c.emitIdx[sig]; ok {
		return i
	}
	em := emitMeta{name: sig.Name, sig: c.presenceOf(sig), outSlot: -1, valOff: -1}
	if j, ok := c.outSlot[sig]; ok {
		em.outSlot = j
	}
	if gs, ok := c.sigSlot[sig]; ok {
		em.valOff, em.valTyp = gs.off, gs.typ
		em.valSize = c.p.types[gs.typ].size
	}
	i := int32(len(c.p.emits))
	c.p.emits = append(c.p.emits, em)
	c.emitIdx[sig] = i
	return i
}

// ---------------------------------------------------------------------------
// Expressions (each compiles to a net push of one value)

func (c *compiler) expr(cx ectx, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		switch obj := c.info.UseOf(e).(type) {
		case *sem.VarInfo:
			c.varRef(cx, obj, 1)
		case *sem.SignalInfo:
			sig := cx.b.Sigs[obj]
			if sig == nil {
				c.exprErr("signal %q unbound in instance %s", e.Name, cx.b.Label)
				return
			}
			gs, ok := c.sigSlot[sig]
			if !ok {
				c.exprErr("signal %s carries no value", sig.Name)
				return
			}
			c.charge(c.emit(opPushG, gs.off, gs.typ), 2)
		case *sem.ConstInfo:
			c.charge(c.pushInt(c.p.tInt, obj.Value), 1)
		default:
			c.exprErr("cannot evaluate %q", e.Name)
		}

	case *ast.BasicLit:
		switch e.Kind {
		case token.INT:
			v, ok := c.info.ConstEval(e)
			if !ok {
				c.exprErr("bad integer literal %q", e.Value)
				return
			}
			c.charge(c.pushInt(c.p.tInt, v), 1)
		case token.CHAR:
			v, ok := c.info.ConstEval(e)
			if !ok {
				c.exprErr("bad char literal %q", e.Value)
				return
			}
			c.charge(c.pushInt(c.tChar, v), 1)
		case token.FLOAT:
			var f float64
			if _, err := fmt.Sscanf(e.Value, "%g", &f); err != nil {
				c.exprErr("bad float literal %q", e.Value)
				return
			}
			c.charge(c.pushFloat(c.p.spaceTyp[cval.Float64], f), 1)
		default:
			c.exprErr("unsupported literal %q", e.Value)
		}

	case *ast.Paren:
		c.expr(cx, e.X)

	case *ast.Unary:
		c.unary(cx, e)

	case *ast.Postfix:
		c.lvalue(cx, e.X)
		delta := int32(1)
		if e.Op == token.DEC {
			delta = -1
		}
		c.charge(c.emit(opIncDec, delta, 1), 2)

	case *ast.Binary:
		c.binary(cx, e)

	case *ast.Assign:
		units := c.storeUnits(c.lvalue(cx, e.LHS))
		c.expr(cx, e.RHS)
		if e.Op == token.ASSIGN {
			c.charge(c.emit(opAssign, 0, 0), units)
			return
		}
		binOp, ok := e.Op.AssignBinOp()
		if !ok {
			c.emitErr("unsupported assignment operator %q", e.Op)
			c.adj(-1)
			return
		}
		c.charge(c.emit(opAssignOp, int32(binOp), 0), units)

	case *ast.Cond:
		c.expr(cx, e.CondX)
		jf := c.emit(opJumpFalse, 0, 0)
		c.charge(jf, 2)
		d0 := c.depth
		c.expr(cx, e.Then)
		j := c.emit(opJump, 0, 0)
		c.patchA(jf, c.here())
		c.depth = d0
		c.expr(cx, e.Else)
		c.patchA(j, c.here())

	case *ast.Call:
		c.call(cx, e)

	case *ast.Index:
		c.expr(cx, e.X)
		c.expr(cx, e.Sub)
		c.charge(c.emit(opIndex, 0, 0), 2)

	case *ast.Member:
		if e.Arrow {
			c.exprErr("pointer member access not supported at runtime")
			return
		}
		c.expr(cx, e.X)
		c.charge(c.emit(opField, c.name(e.Name), 0), 1)

	case *ast.Cast:
		c.expr(cx, e.X)
		to := c.info.TypeOfExpr[e.Type]
		if to == nil {
			c.emitErr("unresolved cast target type")
			return
		}
		ti, ok := c.intern(to)
		if !ok {
			c.emitErr("cannot convert to %s", to)
			return
		}
		c.charge(c.emit(opConvert, ti, 0), 1)

	case *ast.SizeofExpr:
		// The operand is never evaluated (mirrors dataexec).
		if e.Type != nil {
			t := c.info.TypeOfExpr[e.Type]
			if t == nil {
				c.exprErr("unresolved sizeof type")
				return
			}
			c.charge(c.pushInt(c.p.spaceTyp[cval.Uint32], int64(t.Size())), 1)
			return
		}
		t := c.info.TypeOf(e.X)
		if t == nil {
			c.exprErr("unresolved sizeof operand")
			return
		}
		c.charge(c.pushInt(c.p.spaceTyp[cval.Uint32], int64(t.Size())), 1)

	default:
		c.exprErr("cannot evaluate %T", e)
	}
}

// varRef pushes a view of a variable, charging units for the access
// (a read costs one; naming an assignment's target costs nothing), and
// returns the view's type index, or -1 where the access fails at run
// time.
func (c *compiler) varRef(cx ectx, vi *sem.VarInfo, units int32) int32 {
	if cx.fn != nil {
		if ls, ok := cx.fn.locals[vi]; ok {
			c.charge(c.emit(opPushL, ls.off, ls.typ), units)
			return ls.typ
		}
	}
	kv := cx.b.Vars[vi]
	if kv == nil {
		c.exprErr("variable %q unbound in instance %s", vi.Name, cx.b.Label)
		return -1
	}
	gs, ok := c.varSlot[kv]
	if !ok {
		c.exprErr("unknown variable %s", kv.Name)
		return -1
	}
	c.charge(c.emit(opPushG, gs.off, gs.typ), units)
	return gs.typ
}

// lvalue pushes a view of an assignable expression and returns its type
// index, or -1 where the access fails at run time.
func (c *compiler) lvalue(cx ectx, e ast.Expr) int32 {
	switch e := e.(type) {
	case *ast.Ident:
		vi, ok := c.info.UseOf(e).(*sem.VarInfo)
		if !ok {
			c.exprErr("%q is not an assignable variable", e.Name)
			return -1
		}
		return c.varRef(cx, vi, 0)
	case *ast.Paren:
		return c.lvalue(cx, e.X)
	case *ast.Index:
		ti := c.lvalue(cx, e.X)
		c.expr(cx, e.Sub)
		c.charge(c.emit(opIndex, 0, 0), 2)
		if ti < 0 || c.p.types[ti].kind != kArray {
			return -1
		}
		return c.p.types[ti].elem
	case *ast.Member:
		if e.Arrow {
			c.exprErr("pointer member access not supported at runtime")
			return -1
		}
		ti := c.lvalue(cx, e.X)
		c.charge(c.emit(opField, c.name(e.Name), 0), 1)
		if ti < 0 || c.p.types[ti].kind != kStruct {
			return -1
		}
		for _, f := range c.p.types[ti].fields {
			if f.name == e.Name {
				return f.typ
			}
		}
		return -1
	default:
		c.exprErr("expression is not assignable")
		return -1
	}
}

// storeUnits prices an assignment into a view of type ti: one unit plus
// one per word stored. A failing target (-1) stops the reaction before
// anything is priced.
func (c *compiler) storeUnits(ti int32) int32 {
	if ti < 0 {
		return 0
	}
	return 1 + c.p.types[ti].size/4
}

func (c *compiler) unary(cx ectx, e *ast.Unary) {
	switch e.Op {
	case token.INC, token.DEC:
		c.lvalue(cx, e.X)
		delta := int32(1)
		if e.Op == token.DEC {
			delta = -1
		}
		c.charge(c.emit(opIncDec, delta, 0), 2)
	case token.ADD:
		c.expr(cx, e.X)
		c.charge(c.emit(opNop, 0, 0), 1)
	case token.SUB:
		c.expr(cx, e.X)
		c.charge(c.emit(opUnary, uNeg, 0), 1)
	case token.NOT:
		c.expr(cx, e.X)
		c.charge(c.emit(opUnary, uNot, 0), 1)
	case token.TILDE:
		c.expr(cx, e.X)
		c.charge(c.emit(opUnary, uTilde, 0), 1)
	default:
		// The operand's side effects happen first (mirrors dataexec's
		// eval-then-reject order).
		c.expr(cx, e.X)
		c.emitErr("unsupported unary operator %q", e.Op)
	}
}

func (c *compiler) binary(cx ectx, e *ast.Binary) {
	switch e.Op {
	case token.COMMA:
		c.expr(cx, e.X)
		c.emit(opDrop, 0, 0)
		c.expr(cx, e.Y)
	case token.LAND:
		c.expr(cx, e.X)
		jf1 := c.emit(opJumpFalse, 0, 0)
		c.charge(jf1, 2)
		d0 := c.depth
		c.expr(cx, e.Y)
		jf2 := c.emit(opJumpFalse, 0, 0)
		c.pushInt(c.p.tInt, 1)
		j := c.emit(opJump, 0, 0)
		lf := c.here()
		c.patchA(jf1, lf)
		c.patchA(jf2, lf)
		c.depth = d0
		c.pushInt(c.p.tInt, 0)
		c.patchA(j, c.here())
	case token.LOR:
		c.expr(cx, e.X)
		jt1 := c.emit(opJumpTrue, 0, 0)
		c.charge(jt1, 2)
		d0 := c.depth
		c.expr(cx, e.Y)
		jt2 := c.emit(opJumpTrue, 0, 0)
		c.pushInt(c.p.tInt, 0)
		j := c.emit(opJump, 0, 0)
		lt := c.here()
		c.patchA(jt1, lt)
		c.patchA(jt2, lt)
		c.depth = d0
		c.pushInt(c.p.tInt, 1)
		c.patchA(j, c.here())
	default:
		c.expr(cx, e.X)
		c.expr(cx, e.Y)
		c.charge(c.emit(opBinary, int32(e.Op), 0), 1)
	}
}

func (c *compiler) call(cx ectx, e *ast.Call) {
	fi, ok := c.info.UseOf(e.Fun).(*sem.FuncInfo)
	if !ok {
		c.exprErr("call of non-function %q", e.Fun.Name)
		return
	}
	if fi.Decl == nil || fi.Decl.Body == nil {
		c.exprErr("function %q has no body", fi.Name)
		return
	}
	idx := c.funcFor(funcKey{fi: fi, b: cx.b})
	d0 := c.depth
	// The depth limit fires before argument evaluation (mirrors
	// dataexec's frame check at call entry).
	c.emit(opChkDepth, idx, 0)
	for i := range fi.Params {
		if i >= len(e.Args) {
			// Earlier arguments' side effects happen, then the arity
			// error (mirrors dataexec's per-parameter check).
			c.emitErr("too few arguments to %q", fi.Name)
			c.depth = d0 + 1
			return
		}
		c.expr(cx, e.Args[i])
	}
	// Arguments beyond the parameter list are never evaluated, but
	// their setup is priced (call/return plus two units per argument).
	c.charge(c.emit(opCall, idx, int32(len(fi.Params))), 6+2*int32(len(e.Args)))
}
