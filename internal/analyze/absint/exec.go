package absint

import (
	"errors"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/kernel"
	"repro/internal/sem"
	"repro/internal/token"
)

// TrapKind classifies the certain events the interpreter reports.
type TrapKind string

// Trap kinds.
const (
	// TrapDivZero: an integer division or modulo whose divisor is
	// provably always zero (the concrete execution errors out here).
	TrapDivZero TrapKind = "div-zero"
	// TrapShift: a shift whose count is provably outside 0..31 before
	// the runtime's &31 mask is applied.
	TrapShift TrapKind = "shift-range"
	// TrapWrap: signed +, -, *, or / whose exact result provably never
	// fits int32 (the concrete execution silently wraps).
	TrapWrap TrapKind = "wrap"
)

// maxSteps bounds one state transfer's abstract work; past it the
// interpreter degrades every result to top (still sound, never stuck).
const maxSteps = 50000

// maxLoopIters bounds one abstract loop fixpoint; widening converges
// far earlier, this is a backstop.
const maxLoopIters = 40

// maxCallDepth bounds abstract C-call inlining; deeper calls havoc the
// mutable slots and return top (dataexec's own limit is 64).
const maxCallDepth = 8

// Interp abstractly executes data code over a Store, mirroring
// internal/dataexec statement by statement. It is single-use per
// transfer and not safe for concurrent use.
type Interp struct {
	Info *sem.Info
	St   *Store
	// OnTrap, when set, receives each certain trap with the offending
	// expression. It only fires while the current path is feasible and
	// at most once per path (after a certain div-by-zero the concrete
	// execution is already dead).
	OnTrap func(kind TrapKind, e ast.Expr, detail string)

	steps   int
	gaveUp  bool
	trapped bool
	depth   int
}

func (it *Interp) step() {
	it.steps++
	if it.steps > maxSteps {
		it.gaveUp = true
	}
}

func (it *Interp) trap(kind TrapKind, e ast.Expr, detail string) {
	if it.St.Bot || it.trapped || it.gaveUp {
		return
	}
	if it.OnTrap != nil {
		it.OnTrap(kind, e, detail)
	}
	it.trapped = true
	if kind == TrapDivZero {
		// The concrete execution errors out here on every run: nothing
		// past this point ever executes.
		it.St.SetBot()
	}
}

// flow summarizes the abnormal exits of a statement's abstract
// execution; the fall-through store is it.St after the call.
type flow struct {
	brk, cont, ret *Store
	retVal         Val
	retVoid        bool
}

func joinStores(a, b *Store) *Store {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	a.JoinWith(b)
	return a
}

// mergeExits folds o's abnormal exits into f.
func (f *flow) mergeExits(o flow) {
	f.brk = joinStores(f.brk, o.brk)
	f.cont = joinStores(f.cont, o.cont)
	f.ret = joinStores(f.ret, o.ret)
	f.retVal = join(f.retVal, o.retVal)
	f.retVoid = f.retVoid || o.retVoid
}

// mergeRet folds only o's return exit into f (for loops, which consume
// break/continue).
func (f *flow) mergeRet(o flow) {
	f.ret = joinStores(f.ret, o.ret)
	f.retVal = join(f.retVal, o.retVal)
	f.retVoid = f.retVoid || o.retVoid
}

// ---------------------------------------------------------------------------
// Statements

// ExecStmts abstractly executes a data-statement list (a data-function
// body) over the current store.
func (it *Interp) ExecStmts(b *kernel.Binding, stmts []ast.Stmt) flow {
	var out flow
	for _, s := range stmts {
		if it.St.Bot {
			break
		}
		f := it.execStmt(b, s)
		out.mergeExits(f)
	}
	return out
}

func (it *Interp) execStmt(b *kernel.Binding, s ast.Stmt) flow {
	it.step()
	if it.St.Bot {
		return flow{}
	}
	switch s := s.(type) {
	case nil, *ast.Empty:
		return flow{}

	case *ast.Block:
		return it.ExecStmts(b, s.Stmts)

	case *ast.VarDecl:
		vi := it.Info.VarOf[s]
		if vi == nil {
			return flow{}
		}
		// Function-local declarations live in the frame; module-level
		// declarations (and declarations in extracted data functions,
		// which run frameless) write the module slot — exactly
		// dataexec's rule.
		if it.depth > 0 {
			it.St.SetFrame(vi, zeroOf(vi.Type))
		}
		if s.Init != nil {
			v := it.Eval(b, s.Init)
			it.writeVar(b, vi, v)
		}
		return flow{}

	case *ast.ExprStmt:
		it.Eval(b, s.X)
		return flow{}

	case *ast.If:
		cv := it.Eval(b, s.Cond)
		if cv.DefinitelyTrue() {
			return it.execStmt(b, s.Then)
		}
		if cv.DefinitelyFalse() {
			if s.Else != nil {
				return it.execStmt(b, s.Else)
			}
			return flow{}
		}
		pre := it.St.Clone()
		it.assume(b, s.Cond, cv, true)
		fThen := it.execStmt(b, s.Then)
		stThen := it.St
		it.St = pre
		it.assume(b, s.Cond, cv, false)
		var fElse flow
		if s.Else != nil {
			fElse = it.execStmt(b, s.Else)
		}
		it.St.JoinWith(stThen)
		fThen.mergeExits(fElse)
		return fThen

	case *ast.While:
		return it.loop(b, s.Cond, nil, s.Body, true)

	case *ast.DoWhile:
		return it.loop(b, s.Cond, nil, s.Body, false)

	case *ast.For:
		var out flow
		if s.Init != nil {
			out.mergeExits(it.execStmt(b, s.Init))
		}
		lf := it.loop(b, s.Cond, s.Post, s.Body, true)
		out.mergeRet(lf)
		return out

	case *ast.Switch:
		return it.execSwitch(b, s)

	case *ast.Break:
		f := flow{brk: it.St.Clone()}
		it.St.SetBot()
		return f
	case *ast.Continue:
		f := flow{cont: it.St.Clone()}
		it.St.SetBot()
		return f

	case *ast.Return:
		f := flow{ret: it.St.Clone()}
		if s.X != nil {
			f.retVal = it.Eval(b, s.X)
			f.ret = it.St.Clone()
		} else {
			f.retVoid = true
		}
		it.St.SetBot()
		return f
	}
	// Anything dataexec cannot execute aborts concretely; abstractly we
	// keep the path alive but forget the mutable state.
	it.St.HavocVars()
	return flow{}
}

// loop runs an abstract loop-body fixpoint with widening. condFirst
// distinguishes while/for (test at the top) from do-while (test after
// the body). The fall-through store after loop() is the join of every
// loop-exit store (failed test or break).
func (it *Interp) loop(b *kernel.Binding, cond ast.Expr, post, body ast.Stmt, condFirst bool) flow {
	var out flow
	exit := it.St.Clone()
	exit.SetBot()
	inv := it.St.Clone()
	joins := 0
	for iter := 0; iter < maxLoopIters; iter++ {
		it.St = inv.Clone()
		if condFirst {
			it.loopCond(b, cond, exit)
		}
		if !it.St.Bot {
			f := it.execStmt(b, body)
			out.mergeRet(f)
			if f.brk != nil {
				exit.JoinWith(f.brk)
			}
			if f.cont != nil {
				it.St.JoinWith(f.cont)
			}
			if post != nil && !it.St.Bot {
				pf := it.execStmt(b, post)
				out.mergeRet(pf)
			}
			if !condFirst {
				it.loopCond(b, cond, exit)
			}
		}
		next := inv.Clone()
		if !next.JoinWith(it.St) {
			break
		}
		joins++
		if joins >= 3 {
			next.WidenFrom(inv)
		}
		inv = next
		if it.gaveUp {
			// Stop refining; exit with everything forgotten.
			inv.HavocVars()
			exit.JoinWith(inv)
			break
		}
	}
	it.St = exit
	return out
}

// loopCond evaluates the loop test over it.St, joining the
// test-failed branch into exit and leaving it.St as the test-passed
// branch.
func (it *Interp) loopCond(b *kernel.Binding, cond ast.Expr, exit *Store) {
	if cond == nil {
		return // for(;;): no exit through the test
	}
	cv := it.Eval(b, cond)
	if it.St.Bot {
		return
	}
	if !cv.DefinitelyTrue() {
		ex := it.St.Clone()
		if sideEffectFree(cond) {
			save := it.St
			it.St = ex
			it.Narrow(b, cond, false)
			it.St = save
		}
		exit.JoinWith(ex)
	}
	it.assume(b, cond, cv, true)
}

func (it *Interp) execSwitch(b *kernel.Binding, s *ast.Switch) flow {
	tag := it.Eval(b, s.Tag)
	if it.St.Bot {
		return flow{}
	}
	constCases := true
	vals := make([]int64, len(s.Cases))
	defaultIdx := -1
	for i, c := range s.Cases {
		if c.Values == nil {
			defaultIdx = i
			vals[i] = 0
			continue
		}
		// The analyzer's subset: one constant per case (sem enforces
		// constant case values; multi-value cases degrade to imprecise).
		if len(c.Values) != 1 {
			constCases = false
			continue
		}
		v, ok := it.Info.ConstEval(c.Values[0])
		if !ok {
			constCases = false
			continue
		}
		vals[i] = v
	}
	if tc, ok := tag.Const(); ok && constCases {
		match := defaultIdx
		for i, c := range s.Cases {
			if c.Values != nil && vals[i] == tc {
				match = i
				break
			}
		}
		if match < 0 {
			return flow{} // no case, no default: the switch is a no-op
		}
		return it.runCases(b, s, match)
	}
	// Imprecise tag: any case (or the default, or — without a default —
	// no case at all) may be the entry point; join every outcome.
	pre := it.St.Clone()
	acc := pre.Clone()
	acc.SetBot()
	if defaultIdx < 0 {
		acc.JoinWith(pre) // falling past every case
	}
	var out flow
	for i := range s.Cases {
		it.St = pre.Clone()
		f := it.runCases(b, s, i)
		out.mergeExits(f)
		acc.JoinWith(it.St)
	}
	it.St = acc
	return out
}

// runCases executes case bodies from start onward (C fallthrough),
// consuming break as the switch exit — the same sequential scan
// dataexec performs once a case matches.
func (it *Interp) runCases(b *kernel.Binding, s *ast.Switch, start int) flow {
	var out flow
	var exit *Store
	for i := start; i < len(s.Cases); i++ {
		f := it.ExecStmts(b, s.Cases[i].Body)
		if f.brk != nil {
			exit = joinStores(exit, f.brk)
		}
		out.cont = joinStores(out.cont, f.cont)
		out.mergeRet(f)
		if it.St.Bot {
			break
		}
	}
	if exit != nil {
		it.St.JoinWith(exit)
	}
	return out
}

// ---------------------------------------------------------------------------
// Variable access

// readVar reads a variable through the frame-then-module-slot rule.
func (it *Interp) readVar(b *kernel.Binding, vi *sem.VarInfo) Val {
	if v, ok := it.St.FrameVal(vi); ok {
		return v
	}
	if kv := b.Vars[vi]; kv != nil {
		return it.St.VarVal(kv)
	}
	return Top()
}

// writeVar writes a variable through the frame-then-module-slot rule.
func (it *Interp) writeVar(b *kernel.Binding, vi *sem.VarInfo, v Val) {
	if _, ok := it.St.FrameVal(vi); ok {
		it.St.SetFrame(vi, v)
		return
	}
	if kv := b.Vars[vi]; kv != nil {
		it.St.SetVar(kv, v)
	}
}

// lref is an abstract lvalue: a scalar slot or an opaque (untracked)
// location.
type lref struct {
	vi     *sem.VarInfo // non-nil: variable (frame or module slot)
	opaque bool
}

// lvalue resolves an assignable expression, evaluating any
// subexpressions (index computations) for their effects.
func (it *Interp) lvalue(b *kernel.Binding, e ast.Expr) lref {
	switch e := e.(type) {
	case *ast.Ident:
		if vi, ok := it.Info.UseOf(e).(*sem.VarInfo); ok {
			return lref{vi: vi}
		}
	case *ast.Paren:
		return it.lvalue(b, e.X)
	case *ast.Index:
		it.lvalue(b, e.X)
		it.Eval(b, e.Sub)
		return lref{opaque: true}
	case *ast.Member:
		it.lvalue(b, e.X)
		return lref{opaque: true}
	}
	return lref{opaque: true}
}

func (it *Interp) readRef(b *kernel.Binding, r lref) Val {
	if r.vi == nil {
		return Top()
	}
	return it.readVar(b, r.vi)
}

func (it *Interp) writeRef(b *kernel.Binding, r lref, v Val) {
	if r.vi == nil {
		return // aggregate element: the whole slot is already top
	}
	it.writeVar(b, r.vi, v)
}

func (it *Interp) refType(r lref) ctypes.Type {
	if r.vi != nil {
		return r.vi.Type
	}
	return nil
}

// ---------------------------------------------------------------------------
// Expressions

// Eval abstractly evaluates e over the current store, applying its
// side effects, and returns its value in e's own C value space.
func (it *Interp) Eval(b *kernel.Binding, e ast.Expr) Val {
	it.step()
	if it.gaveUp {
		return Top()
	}
	if it.St.Bot {
		return Bot()
	}
	switch e := e.(type) {
	case nil:
		return Top()

	case *ast.Ident:
		switch obj := it.Info.UseOf(e).(type) {
		case *sem.VarInfo:
			return it.readVar(b, obj)
		case *sem.SignalInfo:
			if sig := b.Sigs[obj]; sig != nil && sig.Type != nil {
				return it.St.SigVal(sig)
			}
			return Top()
		case *sem.ConstInfo:
			return Const(obj.Value)
		}
		return Top()

	case *ast.BasicLit:
		switch e.Kind {
		case token.INT, token.CHAR:
			if v, ok := it.Info.ConstEval(e); ok {
				return Const(v)
			}
		}
		return Top()

	case *ast.Paren:
		return it.Eval(b, e.X)

	case *ast.Unary:
		return it.evalUnary(b, e)

	case *ast.Postfix:
		r := it.lvalue(b, e.X)
		old := it.readRef(b, r)
		it.writeRef(b, r, it.incDec(old, e.Op, it.refType(r)))
		return old

	case *ast.Binary:
		return it.evalBinary(b, e)

	case *ast.Assign:
		return it.evalAssign(b, e)

	case *ast.Cond:
		cv := it.Eval(b, e.CondX)
		if cv.DefinitelyTrue() {
			return it.Eval(b, e.Then)
		}
		if cv.DefinitelyFalse() {
			return it.Eval(b, e.Else)
		}
		pre := it.St.Clone()
		v1 := it.Eval(b, e.Then)
		stThen := it.St
		it.St = pre
		v2 := it.Eval(b, e.Else)
		it.St.JoinWith(stThen)
		return join(v1, v2)

	case *ast.Call:
		return it.evalCall(b, e)

	case *ast.Index:
		it.Eval(b, e.X)
		it.Eval(b, e.Sub)
		return Top()

	case *ast.Member:
		it.Eval(b, e.X)
		return Top()

	case *ast.Cast:
		v := it.Eval(b, e.X)
		if to := it.Info.TypeOfExpr[e.Type]; to != nil {
			return inSpace(v, to)
		}
		return Top()

	case *ast.SizeofExpr:
		if e.Type != nil {
			if t := it.Info.TypeOfExpr[e.Type]; t != nil {
				return Const(int64(t.Size()))
			}
			return Top()
		}
		if t := it.Info.TypeOf(e.X); t != nil {
			return Const(int64(t.Size()))
		}
		return Top()
	}
	return Top()
}

// incDec mirrors dataexec's SetInt(Int()+delta): plain int64 adjust,
// truncated into storage (no wrap report — this is a raw store, not C
// arithmetic).
func (it *Interp) incDec(v Val, op token.Kind, t ctypes.Type) Val {
	delta := int64(1)
	if op == token.DEC {
		delta = -1
	}
	if lo, hi, ok := v.Bounds(); ok {
		return inSpace(Interval(lo+delta, hi+delta), t)
	}
	return inSpace(Top(), t)
}

func (it *Interp) evalUnary(b *kernel.Binding, e *ast.Unary) Val {
	switch e.Op {
	case token.INC, token.DEC:
		r := it.lvalue(b, e.X)
		nv := it.incDec(it.readRef(b, r), e.Op, it.refType(r))
		it.writeRef(b, r, nv)
		return nv
	}
	x := it.Eval(b, e.X)
	switch e.Op {
	case token.ADD:
		return x
	case token.SUB:
		t := it.Info.TypeOf(e.X)
		if t != nil && t.Kind() == ctypes.KindFloat {
			return Top()
		}
		pt := promoteOf(t)
		if lo, hi, ok := x.Bounds(); ok {
			return fitOrFull(Interval(-hi, -lo), pt)
		}
		return topOf(pt)
	case token.NOT:
		if x.DefinitelyTrue() {
			return Const(0)
		}
		if x.DefinitelyFalse() {
			return Const(1)
		}
		if x.IsBot() {
			return Bot()
		}
		return Interval(0, 1)
	case token.TILDE:
		t := it.Info.TypeOf(e.X)
		if t == ctypes.Bool {
			// ECL's logical negation on bool (the paper's "~crc_ok").
			if x.DefinitelyTrue() {
				return Const(0)
			}
			if x.DefinitelyFalse() {
				return Const(1)
			}
			if x.IsBot() {
				return Bot()
			}
			return Interval(0, 1)
		}
		pt := promoteOf(t)
		if lo, hi, ok := x.Bounds(); ok {
			// ^x is exactly [-hi-1, -lo-1] (monotone decreasing).
			return fitOrFull(Interval(^hi, ^lo), pt)
		}
		return topOf(pt)
	}
	return Top()
}

func promoteOf(t ctypes.Type) ctypes.Type {
	if t == nil || !ctypes.IsArithmetic(t) {
		return ctypes.Int
	}
	return ctypes.Promote(t)
}

// fitOrFull keeps an exactly-computed interval when it fits t's range,
// degrading to the full range otherwise (the concrete value wrapped).
func fitOrFull(v Val, t ctypes.Type) Val {
	lo, hi, ok := typeRange(t)
	if !ok {
		return Top()
	}
	if vl, vh, vok := v.Bounds(); vok && vl >= lo && vh <= hi {
		return v
	}
	if v.IsBot() {
		return v
	}
	return Interval(lo, hi)
}

func (it *Interp) evalAssign(b *kernel.Binding, e *ast.Assign) Val {
	r := it.lvalue(b, e.LHS)
	src := it.Eval(b, e.RHS)
	t := it.refType(r)
	if e.Op == token.ASSIGN {
		it.writeRef(b, r, src)
		if t != nil {
			return inSpace(src, t)
		}
		return Top()
	}
	binOp, ok := e.Op.AssignBinOp()
	if !ok {
		it.writeRef(b, r, Top())
		return Top()
	}
	old := it.readRef(b, r)
	res := it.arith(binOp, old, src, t, it.Info.TypeOf(e.RHS), e)
	it.writeRef(b, r, res)
	if t != nil {
		return inSpace(res, t)
	}
	return Top()
}

func (it *Interp) evalBinary(b *kernel.Binding, e *ast.Binary) Val {
	switch e.Op {
	case token.COMMA:
		it.Eval(b, e.X)
		return it.Eval(b, e.Y)
	case token.LAND:
		x := it.Eval(b, e.X)
		if x.DefinitelyFalse() {
			return Const(0) // Y never evaluates
		}
		if x.IsBot() {
			return Bot()
		}
		if x.DefinitelyTrue() {
			return truth(it.Eval(b, e.Y))
		}
		// Y evaluates on some runs only: join the two effect worlds.
		pre := it.St.Clone()
		y := it.Eval(b, e.Y)
		it.St.JoinWith(pre)
		if y.DefinitelyFalse() {
			return Const(0)
		}
		return Interval(0, 1)
	case token.LOR:
		x := it.Eval(b, e.X)
		if x.DefinitelyTrue() {
			return Const(1)
		}
		if x.IsBot() {
			return Bot()
		}
		if x.DefinitelyFalse() {
			return truth(it.Eval(b, e.Y))
		}
		pre := it.St.Clone()
		y := it.Eval(b, e.Y)
		it.St.JoinWith(pre)
		if y.DefinitelyTrue() {
			return Const(1)
		}
		return Interval(0, 1)
	}
	x := it.Eval(b, e.X)
	y := it.Eval(b, e.Y)
	return it.arith(e.Op, x, y, it.Info.TypeOf(e.X), it.Info.TypeOf(e.Y), e)
}

func truth(v Val) Val {
	if v.DefinitelyTrue() {
		return Const(1)
	}
	if v.DefinitelyFalse() {
		return Const(0)
	}
	if v.IsBot() {
		return Bot()
	}
	return Interval(0, 1)
}

func (it *Interp) evalCall(b *kernel.Binding, e *ast.Call) Val {
	fi, _ := it.Info.UseOf(e.Fun).(*sem.FuncInfo)
	args := make([]Val, len(e.Args))
	for i, a := range e.Args {
		args[i] = it.Eval(b, a)
	}
	if fi == nil || fi.Decl.Body == nil {
		return Top()
	}
	if it.depth >= maxCallDepth || it.gaveUp {
		// Too deep to inline: the callee may write any module variable.
		it.St.HavocVars()
		return Top()
	}
	// Save the frame slots the parameters shadow (recursion reuses the
	// same VarInfos), bind arguments, inline the body, restore.
	type saved struct {
		vi      *sem.VarInfo
		val     Val
		existed bool
	}
	var sav []saved
	for i, p := range fi.Params {
		old, ok := it.St.FrameVal(p)
		sav = append(sav, saved{p, old, ok})
		av := Top()
		if i < len(args) {
			av = args[i]
		}
		it.St.SetFrame(p, av)
	}
	it.depth++
	f := it.ExecStmts(b, fi.Decl.Body.Stmts)
	it.depth--
	ret := Bot()
	if f.ret != nil {
		it.St.JoinWith(f.ret)
		ret = f.retVal
	}
	if !it.St.Bot && f.ret == nil || f.retVoid {
		// Fall-through (or a bare return) yields the zero value of the
		// return type, exactly as dataexec does.
		ret = join(ret, zeroOf(fi.Ret))
	}
	if !it.St.Bot && f.ret != nil && !f.retVoid {
		// Fall-through alongside value returns.
		ret = join(ret, zeroOf(fi.Ret))
	}
	for _, s := range sav {
		it.St.restoreFrame(s.vi, s.val, s.existed)
	}
	return ret
}

// ---------------------------------------------------------------------------
// Arithmetic

// arith lifts dataexec.arith to intervals: usual arithmetic
// conversions pick the signed int32 or unsigned uint32 value space,
// constants fold through cval's kernel (including wraps), intervals
// compute the exact mathematical hull and degrade to the full space on
// overflow. Certain traps — div by provably-zero, shift count provably
// outside 0..31, signed results that provably never fit — report
// through OnTrap.
func (it *Interp) arith(op token.Kind, x, y Val, tx, ty ctypes.Type, origin ast.Expr) Val {
	if x.IsBot() || y.IsBot() {
		return Bot()
	}
	// Array operand in a comparison: reinterpreted bytes, untracked.
	if tx != nil && tx.Kind() == ctypes.KindArray {
		x, tx = Top(), promoteOf(ty)
	}
	if ty != nil && ty.Kind() == ctypes.KindArray {
		y, ty = Top(), promoteOf(tx)
	}
	if tx == nil {
		tx = ctypes.Int
	}
	if ty == nil {
		ty = ctypes.Int
	}
	common := ctypes.UsualArithmetic(tx, ty)
	if common.Kind() == ctypes.KindFloat {
		switch op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			return Interval(0, 1)
		}
		return Top()
	}
	unsigned := ctypes.IsUnsigned(common)
	xs := inSpace(x, common)
	ys := inSpace(y, common)

	switch op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return compare(op, xs, ys)
	}

	// Both constants: compute the exact concrete result, wraps and all.
	if cx, okx := xs.Const(); okx {
		if cy, oky := ys.Const(); oky {
			return it.constArith(op, cx, cy, unsigned, origin)
		}
	}

	xl, xh, okx := xs.Bounds()
	yl, yh, oky := ys.Bounds()
	full := topOf(common)
	if !okx || !oky {
		// Still check the traps that depend on one side only.
		switch op {
		case token.QUO, token.REM:
			if ys.DefinitelyFalse() {
				it.trap(TrapDivZero, origin, "divisor is always 0")
			}
		case token.SHL, token.SHR:
			if oky && (yh < 0 || yl > 31) {
				it.trap(TrapShift, origin, "shift count is always "+ys.String())
			}
		}
		return full
	}

	signedWrapCheck := func(exact Val) Val {
		fit := fitOrFull(exact, common)
		if el, eh, ok := exact.Bounds(); ok && fit != exact && !unsigned {
			lo, hi, _ := typeRange(common)
			if eh < lo || el > hi {
				// Every concrete result is out of range: certain wrap.
				it.trap(TrapWrap, origin, "exact result is "+exact.String())
			}
		}
		return fit
	}

	switch op {
	case token.ADD:
		return signedWrapCheck(Interval(xl+yl, xh+yh))
	case token.SUB:
		return signedWrapCheck(Interval(xl-yh, xh-yl))
	case token.MUL:
		if unsigned && (xh > 1<<31 || yh > 1<<31) {
			return full // endpoint products could overflow int64
		}
		return signedWrapCheck(hull4(xl*yl, xl*yh, xh*yl, xh*yh))
	case token.QUO:
		if ys.DefinitelyFalse() {
			it.trap(TrapDivZero, origin, "divisor is always 0")
			return full
		}
		if yl <= 0 && 0 <= yh {
			return full // possible (not certain) trap; no refinement
		}
		return signedWrapCheck(hull4(xl/yl, xl/yh, xh/yl, xh/yh))
	case token.REM:
		if ys.DefinitelyFalse() {
			it.trap(TrapDivZero, origin, "divisor is always 0")
			return full
		}
		if yl <= 0 && 0 <= yh {
			return full
		}
		d := max64(abs64(yl), abs64(yh))
		lo, hi := -(d - 1), d-1
		if xl >= 0 {
			lo = 0
		}
		if xh <= 0 {
			hi = 0
		}
		return Interval(lo, hi)
	case token.SHL, token.SHR:
		if yh < 0 || yl > 31 {
			it.trap(TrapShift, origin, "shift count is always "+ys.String())
			return full
		}
		if yl < 0 || yh > 31 {
			return full // count sometimes masked: value unpredictable
		}
		if op == token.SHL {
			return fitOrFull(hull4(xl<<uint(yl), xl<<uint(yh), xh<<uint(yl), xh<<uint(yh)), common)
		}
		if unsigned || xl >= 0 {
			return Interval(xl>>uint(yh), xh>>uint(yl))
		}
		return hull4(xl>>uint(yl), xl>>uint(yh), xh>>uint(yl), xh>>uint(yh))
	case token.AND:
		// A non-negative mask bounds the result regardless of the other
		// side (the &31 idiom).
		if c, ok := xs.Const(); ok && c >= 0 {
			return Interval(0, c)
		}
		if c, ok := ys.Const(); ok && c >= 0 {
			return Interval(0, c)
		}
		if xl >= 0 && yl >= 0 {
			return Interval(0, min64(xh, yh))
		}
		return full
	case token.OR, token.XOR:
		return full
	}
	return full
}

// constArith folds two known operands through cval's kernel,
// wraps included, and reports the certain traps: a zero divisor, a
// shift count outside 0..31, and a signed +, -, * or / whose exact
// result does not fit.
func (it *Interp) constArith(op token.Kind, cx, cy int64, unsigned bool, origin ast.Expr) Val {
	sp := cval.Int32
	if unsigned {
		sp = cval.Uint32
	}
	r, exact, _, err := cval.Binary(op, uint64(cx), sp, uint64(cy), sp)
	if errors.Is(err, cval.ErrDivByZero) {
		it.trap(TrapDivZero, origin, "divisor is always 0")
		return Top()
	}
	if err != nil {
		return Top()
	}
	if (op == token.SHL || op == token.SHR) && (cy < 0 || cy > 31) {
		it.trap(TrapShift, origin, "shift count is always "+Const(cy).String())
	}
	// Bits a left shift drops are not reported as a wrap.
	if !unsigned && op != token.SHL && int64(r) != exact {
		it.trap(TrapWrap, origin, "exact result is "+Const(exact).String())
	}
	return Const(int64(r))
}

func compare(op token.Kind, x, y Val) Val {
	xl, xh, okx := x.Bounds()
	yl, yh, oky := y.Bounds()
	if !okx || !oky {
		return Interval(0, 1)
	}
	decided := func(always, never bool) Val {
		if always {
			return Const(1)
		}
		if never {
			return Const(0)
		}
		return Interval(0, 1)
	}
	switch op {
	case token.EQL:
		return decided(xl == xh && yl == yh && xl == yl, xh < yl || yh < xl)
	case token.NEQ:
		return decided(xh < yl || yh < xl, xl == xh && yl == yh && xl == yl)
	case token.LSS:
		return decided(xh < yl, xl >= yh)
	case token.GTR:
		return decided(xl > yh, xh <= yl)
	case token.LEQ:
		return decided(xh <= yl, xl > yh)
	case token.GEQ:
		return decided(xl >= yh, xh < yl)
	}
	return Interval(0, 1)
}

func hull4(a, b, c, d int64) Val {
	return Interval(min64(min64(a, b), min64(c, d)), max64(max64(a, b), max64(c, d)))
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
