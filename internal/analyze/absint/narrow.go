package absint

import (
	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/kernel"
	"repro/internal/sem"
	"repro/internal/token"
)

// assume refines the store with the knowledge that e's C truth value
// is want: a constant contradiction kills the path outright, otherwise
// a side-effect-free condition narrows the tested slots. cv must be
// e's already-evaluated abstract value (so its side effects happened
// exactly once).
func (it *Interp) assume(b *kernel.Binding, e ast.Expr, cv Val, want bool) {
	if it.St.Bot {
		return
	}
	if cv.IsBot() || (want && cv.DefinitelyFalse()) || (!want && cv.DefinitelyTrue()) {
		it.St.SetBot()
		return
	}
	if sideEffectFree(e) {
		it.Narrow(b, e, want)
	}
}

// Narrow refines the current store by asserting that the (side-effect-
// free) condition e evaluates to want. It clamps the intervals of
// plain variable and valued-signal operands of comparisons, truthiness
// tests, and &&/||/! combinations; an empty clamp kills the path.
func (it *Interp) Narrow(b *kernel.Binding, e ast.Expr, want bool) {
	if it.St.Bot {
		return
	}
	switch e := e.(type) {
	case *ast.Paren:
		it.Narrow(b, e.X, want)
	case *ast.Unary:
		switch e.Op {
		case token.NOT:
			it.Narrow(b, e.X, !want)
		case token.TILDE:
			if it.Info.TypeOf(e.X) == ctypes.Bool {
				it.Narrow(b, e.X, !want) // ECL's bool negation
			}
		}
	case *ast.Binary:
		switch e.Op {
		case token.LAND:
			if want { // both operands are true
				it.Narrow(b, e.X, true)
				it.Narrow(b, e.Y, true)
			}
		case token.LOR:
			if !want { // both operands are false
				it.Narrow(b, e.X, false)
				it.Narrow(b, e.Y, false)
			}
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			it.narrowCmp(b, e, want)
		}
	case *ast.Ident:
		it.narrowTruth(b, e, want)
	}
}

// slot is a narrowable storage location, resolved to the concrete
// store key (frame VarInfo, module Var, or valued Signal).
type slot struct {
	frame *sem.VarInfo
	kv    *kernel.Var
	sig   *kernel.Signal
	typ   ctypes.Type
}

// slotFor resolves a plain (possibly parenthesized) identifier to a
// narrowable integer slot, through the same frame-then-module rule the
// evaluator reads with.
func (it *Interp) slotFor(b *kernel.Binding, e ast.Expr) (slot, bool) {
	for {
		p, ok := e.(*ast.Paren)
		if !ok {
			break
		}
		e = p.X
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return slot{}, false
	}
	switch obj := it.Info.UseOf(id).(type) {
	case *sem.VarInfo:
		if _, _, ok := typeRange(obj.Type); !ok {
			return slot{}, false
		}
		if _, inFrame := it.St.FrameVal(obj); inFrame {
			return slot{frame: obj, typ: obj.Type}, true
		}
		kv := b.Vars[obj]
		if kv == nil {
			return slot{}, false
		}
		return slot{kv: kv, typ: kv.Type}, true
	case *sem.SignalInfo:
		sig := b.Sigs[obj]
		if sig == nil || sig.Type == nil {
			return slot{}, false
		}
		if _, _, ok := typeRange(sig.Type); !ok {
			return slot{}, false
		}
		return slot{sig: sig, typ: sig.Type}, true
	}
	return slot{}, false
}

func (it *Interp) slotRead(b *kernel.Binding, s slot) Val {
	switch {
	case s.sig != nil:
		return it.St.SigVal(s.sig)
	case s.frame != nil:
		v, _ := it.St.FrameVal(s.frame)
		return v
	}
	return it.St.VarVal(s.kv)
}

// slotWrite stores a narrowed value directly (it is already a subset
// of the slot's current value, hence in range — no truncation).
func (it *Interp) slotWrite(s slot, v Val) {
	if it.St.Bot {
		return
	}
	tab := it.St.tab
	switch {
	case s.sig != nil:
		it.St.put(tab.sigSlot(s.sig), v)
	case s.frame != nil:
		it.St.put(tab.frameSlot(s.frame), v)
	default:
		it.St.put(tab.varSlot(s.kv), v)
	}
}

// narrowTruth clamps a bare identifier condition: "if (x)" removes a
// zero endpoint, "if (!x)" pins the slot to zero.
func (it *Interp) narrowTruth(b *kernel.Binding, id *ast.Ident, want bool) {
	s, ok := it.slotFor(b, id)
	if !ok {
		return
	}
	cur := it.slotRead(b, s)
	lo, hi, ok := cur.Bounds()
	if !ok {
		if cur.IsTop() {
			cur = topOf(s.typ)
			lo, hi, ok = cur.Bounds()
		}
		if !ok {
			return
		}
	}
	if !want {
		if lo <= 0 && 0 <= hi {
			it.slotWrite(s, Const(0))
		} else {
			it.St.SetBot()
		}
		return
	}
	// Nonzero: trim zero endpoints (interior holes are inexpressible).
	if lo == 0 && hi == 0 {
		it.St.SetBot()
		return
	}
	if lo == 0 {
		lo = 1
	}
	if hi == 0 {
		hi = -1
	}
	it.slotWrite(s, Interval(lo, hi))
}

// narrowCmp clamps the plain-slot operands of an integer comparison.
func (it *Interp) narrowCmp(b *kernel.Binding, e *ast.Binary, want bool) {
	op := e.Op
	if !want {
		op = negateCmp(op)
	}
	tx, ty := it.Info.TypeOf(e.X), it.Info.TypeOf(e.Y)
	if tx == nil || ty == nil || !ctypes.IsInteger(tx) || !ctypes.IsInteger(ty) {
		return
	}
	space := ctypes.UsualArithmetic(tx, ty)
	spLo, spHi, ok := typeRange(space)
	if !ok {
		return
	}
	xv := inSpace(it.Eval(b, e.X), space)
	yv := inSpace(it.Eval(b, e.Y), space)
	if it.St.Bot {
		return
	}
	if sx, ok := it.slotFor(b, e.X); ok {
		it.clampSlot(b, sx, op, yv, spLo, spHi)
	}
	if sy, ok := it.slotFor(b, e.Y); ok {
		it.clampSlot(b, sy, flipCmp(op), xv, spLo, spHi)
	}
}

// clampSlot narrows slot s by "s OP bound" in the comparison space
// [spLo, spHi]. The clamp only applies when the slot's current value
// already fits the comparison space (so the space conversion is the
// identity and shrinking the converted value shrinks the slot).
func (it *Interp) clampSlot(b *kernel.Binding, s slot, op token.Kind, bound Val, spLo, spHi int64) {
	bl, bh, ok := bound.Bounds()
	if !ok {
		return
	}
	cur := it.slotRead(b, s)
	if cur.IsTop() {
		cur = topOf(s.typ)
	}
	cl, ch, ok := cur.Bounds()
	if !ok {
		return
	}
	if cl < spLo || ch > spHi {
		return // reinterpreted in the comparison: can't clamp the slot
	}
	var lo, hi int64 = spLo, spHi
	switch op {
	case token.EQL:
		lo, hi = bl, bh
	case token.NEQ:
		if bl == bh {
			nv := trimPoint(Interval(cl, ch), bl)
			if nv.IsBot() {
				it.St.SetBot()
			} else {
				it.slotWrite(s, nv)
			}
		}
		return
	case token.LSS:
		hi = bh - 1
	case token.LEQ:
		hi = bh
	case token.GTR:
		lo = bl + 1
	case token.GEQ:
		lo = bl
	default:
		return
	}
	nv := Interval(max64(cl, lo), min64(ch, hi))
	if nv.IsBot() {
		it.St.SetBot()
		return
	}
	it.slotWrite(s, nv)
}

// trimPoint removes c from v when c sits on an endpoint (interior
// holes are inexpressible in an interval).
func trimPoint(v Val, c int64) Val {
	lo, hi, ok := v.Bounds()
	if !ok {
		return v
	}
	if lo == c && hi == c {
		return Bot()
	}
	if lo == c {
		return Interval(lo+1, hi)
	}
	if hi == c {
		return Interval(lo, hi-1)
	}
	return v
}

// negateCmp is the comparison that holds when op does not.
func negateCmp(op token.Kind) token.Kind {
	switch op {
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	case token.LSS:
		return token.GEQ
	case token.GEQ:
		return token.LSS
	case token.GTR:
		return token.LEQ
	case token.LEQ:
		return token.GTR
	}
	return op
}

// flipCmp is the comparison seen from the right operand's side.
func flipCmp(op token.Kind) token.Kind {
	switch op {
	case token.LSS:
		return token.GTR
	case token.GTR:
		return token.LSS
	case token.LEQ:
		return token.GEQ
	case token.GEQ:
		return token.LEQ
	}
	return op // EQL and NEQ are symmetric
}

// sideEffectFree reports whether evaluating e cannot change the store:
// no assignments, no increments, no calls. Such a condition may be
// re-walked for narrowing after its value was computed.
func sideEffectFree(e ast.Expr) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.Paren:
		return sideEffectFree(e.X)
	case *ast.Unary:
		if e.Op == token.INC || e.Op == token.DEC {
			return false
		}
		return sideEffectFree(e.X)
	case *ast.Postfix:
		return false
	case *ast.Binary:
		return sideEffectFree(e.X) && sideEffectFree(e.Y)
	case *ast.Assign:
		return false
	case *ast.Cond:
		return sideEffectFree(e.CondX) && sideEffectFree(e.Then) && sideEffectFree(e.Else)
	case *ast.Call:
		return false
	case *ast.Index:
		return sideEffectFree(e.X) && sideEffectFree(e.Sub)
	case *ast.Member:
		return sideEffectFree(e.X)
	case *ast.Cast:
		return sideEffectFree(e.X)
	case *ast.SizeofExpr:
		return true
	}
	return false
}
