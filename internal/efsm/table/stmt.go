package table

import (
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/efsm"
	"repro/internal/kernel"
	"repro/internal/sem"
)

// ---------------------------------------------------------------------------
// Statements (net zero stack effect)

func (c *compiler) stmts(sx sctx, list []ast.Stmt) {
	for _, s := range list {
		c.stmt(sx, s)
	}
}

func (c *compiler) stmt(sx sctx, s ast.Stmt) {
	d0 := c.depth
	defer func() { c.depth = d0 }() // statements are stack-neutral

	switch s := s.(type) {
	case nil, *ast.Empty:

	case *ast.Block:
		c.stmts(sx, s.Stmts)

	case *ast.VarDecl:
		vi := c.info.VarOf[s]
		if vi == nil {
			c.emitErr("unresolved declaration of %q", s.Name)
			return
		}
		if sx.cx.fn != nil {
			ls, ok := sx.cx.fn.locals[vi]
			if !ok {
				c.emitErr("unresolved declaration of %q", s.Name)
				return
			}
			// The frame slot zeroes each time the declaration executes
			// (mirrors dataexec's fresh cval.New per execution).
			c.emit(opZeroL, ls.off, c.p.types[ls.typ].size)
			if s.Init != nil {
				c.emit(opPushL, ls.off, ls.typ)
				c.expr(sx.cx, s.Init)
				c.charge(c.emit(opAssign, 0, 0), 1)
				c.emit(opDrop, 0, 0)
			}
			return
		}
		// Data-function context: the variable is a module store; only
		// the initializer runs.
		if s.Init != nil {
			c.varRef(sx.cx, vi, 0)
			c.expr(sx.cx, s.Init)
			c.charge(c.emit(opAssign, 0, 0), 1)
			c.emit(opDrop, 0, 0)
		}

	case *ast.ExprStmt:
		c.expr(sx.cx, s.X)
		c.emit(opDrop, 0, 0)

	case *ast.If:
		c.expr(sx.cx, s.Cond)
		jf := c.emit(opJumpFalse, 0, 0)
		c.charge(jf, 2)
		c.stmt(sx, s.Then)
		if s.Else != nil {
			j := c.emit(opJump, 0, 0)
			c.patchA(jf, c.here())
			c.stmt(sx, s.Else)
			c.patchA(j, c.here())
		} else {
			c.patchA(jf, c.here())
		}

	case *ast.While:
		lcond := c.here()
		c.emit(opTick, 0, 0)
		c.expr(sx.cx, s.Cond)
		jf := c.emit(opJumpFalse, 0, 0)
		c.charge(jf, 2)
		brk, cont := []int32{}, []int32{}
		bsx := sx
		bsx.brk, bsx.cont = &brk, &cont
		c.stmt(bsx, s.Body)
		c.emit(opJump, lcond, 0)
		end := c.here()
		c.patchA(jf, end)
		for _, j := range brk {
			c.patchA(j, end)
		}
		for _, j := range cont {
			c.patchA(j, lcond)
		}

	case *ast.DoWhile:
		ltop := c.here()
		c.emit(opTick, 0, 0)
		brk, cont := []int32{}, []int32{}
		bsx := sx
		bsx.brk, bsx.cont = &brk, &cont
		c.stmt(bsx, s.Body)
		lcond := c.here()
		c.expr(sx.cx, s.Cond)
		c.charge(c.emit(opJumpTrue, ltop, 0), 2)
		end := c.here()
		for _, j := range brk {
			c.patchA(j, end)
		}
		for _, j := range cont {
			c.patchA(j, lcond)
		}

	case *ast.For:
		if s.Init != nil {
			c.stmt(sx, s.Init)
		}
		lcond := c.here()
		c.emit(opTick, 0, 0)
		jf := int32(-1)
		if s.Cond != nil {
			c.expr(sx.cx, s.Cond)
			jf = c.emit(opJumpFalse, 0, 0)
			c.charge(jf, 2)
		}
		brk, cont := []int32{}, []int32{}
		bsx := sx
		bsx.brk, bsx.cont = &brk, &cont
		c.stmt(bsx, s.Body)
		lpost := c.here()
		if s.Post != nil {
			c.stmt(sx, s.Post)
		}
		c.emit(opJump, lcond, 0)
		end := c.here()
		if jf >= 0 {
			c.patchA(jf, end)
		}
		for _, j := range brk {
			c.patchA(j, end)
		}
		for _, j := range cont {
			c.patchA(j, lpost)
		}

	case *ast.Switch:
		c.switchStmt(sx, s)

	case *ast.Break:
		c.jumpOut(sx, sx.brk)

	case *ast.Continue:
		c.jumpOut(sx, sx.cont)

	case *ast.Return:
		if sx.cx.fn != nil {
			if s.X != nil {
				c.expr(sx.cx, s.X)
				c.emit(opRet, 1, 0)
			} else {
				c.emit(opRet, 0, 0)
			}
			return
		}
		// Data-function context: evaluate (for side effects and
		// errors), then return from the subroutine.
		if s.X != nil {
			c.expr(sx.cx, s.X)
			c.emit(opDrop, 0, 0)
		}
		c.emit(opRetData, 0, 0)

	default:
		c.emitErr("cannot execute %T in data context", s)
	}
}

// switchStmt compiles C switch dispatch: control enters at the first
// clause with a matching case value (non-constant values never match),
// else at the default clause, else skips the switch; bodies are laid
// out in clause order, so control falls through until a break.
func (c *compiler) switchStmt(sx sctx, s *ast.Switch) {
	c.expr(sx.cx, s.Tag)
	reg := c.tags
	c.tags++
	c.charge(c.emit(opStoreTag, reg, 0), 3)

	type casePatch struct{ at, clause int32 }
	var patches []casePatch
	def := -1
	for ci, cc := range s.Cases {
		if cc.Values == nil {
			if def < 0 {
				def = ci
			}
			continue
		}
		for _, vexpr := range cc.Values {
			v, ok := c.info.ConstEval(vexpr)
			if !ok {
				continue
			}
			at := c.emitImm(opCaseEq, reg, 0, uint64(v))
			patches = append(patches, casePatch{at, int32(ci)})
		}
	}
	noMatch := c.emit(opJump, 0, 0)

	bodyPC := make([]int32, len(s.Cases))
	brk := []int32{}
	bsx := sx
	bsx.brk = &brk // continue passes through to the enclosing loop
	for ci, cc := range s.Cases {
		bodyPC[ci] = c.here()
		c.stmts(bsx, cc.Body)
	}
	end := c.here()
	for _, pt := range patches {
		c.patchB(pt.at, bodyPC[pt.clause])
	}
	if def >= 0 {
		c.patchA(noMatch, bodyPC[def])
	} else {
		c.patchA(noMatch, end)
	}
	for _, j := range brk {
		c.patchA(j, end)
	}
}

// jumpOut compiles break/continue: to the enclosing loop/switch target,
// else (in a C function) to the epilogue — dataexec lets a stray
// break/continue fall out of the body, which returns the zero value —
// else (extracted data code) to the interpreter's escape error.
func (c *compiler) jumpOut(sx sctx, list *[]int32) {
	if list != nil {
		*list = append(*list, c.emit(opJump, 0, 0))
		return
	}
	if sx.cx.fn != nil {
		esc := sx.cx.fn.escapes
		*esc = append(*esc, c.emit(opJump, 0, 0))
		return
	}
	name := "data"
	if sx.cx.df != nil {
		name = sx.cx.df.Name
	}
	c.emitErr("%s: break/continue escaped extracted data code", name)
}

// ---------------------------------------------------------------------------
// C functions and data-function subroutines

func (c *compiler) funcFor(k funcKey) int32 {
	if i, ok := c.funcIdx[k]; ok {
		return i
	}
	i := int32(len(c.p.funcs))
	c.p.funcs = append(c.p.funcs, funcMeta{name: k.fi.Name, entry: -1, ret: -1, retSlot: -1})
	c.funcIdx[k] = i
	c.pendF = append(c.pendF, k)
	return i
}

func (c *compiler) dataFuncFor(df *kernel.DataFunc) int32 {
	if i, ok := c.dfIdx[df]; ok {
		return i
	}
	i := int32(len(c.p.funcs))
	c.p.funcs = append(c.p.funcs, funcMeta{name: df.Name, entry: -1, ret: -1, retSlot: -1})
	c.dfIdx[df] = i
	c.pendD = append(c.pendD, df)
	return i
}

func (c *compiler) compileFunc(idx int32, k funcKey) {
	fi := k.fi
	fm := funcMeta{name: fi.Name, ret: -1, retSlot: -1}
	locals := make(map[*sem.VarInfo]localSlot)
	off := int32(0)
	bad := ""
	addLocal := func(vi *sem.VarInfo) (localSlot, bool) {
		ti, ok := c.intern(vi.Type)
		if !ok {
			return localSlot{}, false
		}
		off = alignUp(off, int32(vi.Type.Align()))
		ls := localSlot{off: off, typ: ti}
		off += c.p.types[ti].size
		locals[vi] = ls
		return ls, true
	}
	for _, pv := range fi.Params {
		ls, ok := addLocal(pv)
		if !ok {
			bad = fmt.Sprintf("unsupported parameter type in %q", fi.Name)
			break
		}
		fm.params = append(fm.params, paramMeta{off: ls.off, typ: ls.typ})
	}
	walkDecls(fi.Decl.Body.Stmts, func(d *ast.VarDecl) {
		vi := c.info.VarOf[d]
		if vi == nil {
			return
		}
		if _, dup := locals[vi]; dup {
			return
		}
		addLocal(vi) // a failure surfaces at the declaration's use site
	})
	fm.frameSize = off
	if ti, ok := c.intern(fi.Ret); ok {
		fm.ret = ti
		t := &c.p.types[ti]
		if t.kind == kArray || t.kind == kStruct || t.kind == kOpaque {
			fm.retSlot = c.allocGlobal(t.size, int32(fi.Ret.Align()))
		}
	} else {
		bad = fmt.Sprintf("unsupported return type in %q", fi.Name)
	}
	fm.entry = c.here()
	c.depth = 0
	if bad != "" {
		c.emitErr("%s", bad)
	} else {
		esc := []int32{}
		fn := &fnCtx{idx: idx, locals: locals, escapes: &esc}
		c.stmts(sctx{cx: ectx{b: k.b, fn: fn}}, fi.Decl.Body.Stmts)
		for _, at := range esc {
			c.patchA(at, c.here())
		}
	}
	// Implicit epilogue: fall-through (and stray break/continue) return
	// the zero value of the declared type.
	c.emit(opRet, 0, 0)
	c.p.funcs[idx] = fm
}

func (c *compiler) compileDataFunc(idx int32, df *kernel.DataFunc) {
	fm := funcMeta{name: df.Name, entry: c.here(), ret: -1, retSlot: -1}
	c.depth = 0
	c.stmts(sctx{cx: ectx{b: df.B, df: df}}, df.Body)
	c.emit(opRetData, 0, 0)
	c.p.funcs[idx] = fm
}

// walkDecls visits every VarDecl in a statement tree (the compile-time
// frame layout: one slot per declared VarInfo).
func walkDecls(list []ast.Stmt, f func(*ast.VarDecl)) {
	for _, s := range list {
		walkDeclsStmt(s, f)
	}
}

func walkDeclsStmt(s ast.Stmt, f func(*ast.VarDecl)) {
	switch s := s.(type) {
	case *ast.VarDecl:
		f(s)
	case *ast.Block:
		walkDecls(s.Stmts, f)
	case *ast.If:
		walkDeclsStmt(s.Then, f)
		if s.Else != nil {
			walkDeclsStmt(s.Else, f)
		}
	case *ast.While:
		walkDeclsStmt(s.Body, f)
	case *ast.DoWhile:
		walkDeclsStmt(s.Body, f)
	case *ast.For:
		if s.Init != nil {
			walkDeclsStmt(s.Init, f)
		}
		walkDeclsStmt(s.Body, f)
		if s.Post != nil {
			walkDeclsStmt(s.Post, f)
		}
	case *ast.Switch:
		for _, cc := range s.Cases {
			walkDecls(cc.Body, f)
		}
	}
}

// ---------------------------------------------------------------------------
// Compile memoization

type forCacheT struct {
	mu sync.Mutex
	m  map[*efsm.Machine]forResult
}

func newForCache() *forCacheT {
	return &forCacheT{m: map[*efsm.Machine]forResult{}}
}

func (fc *forCacheT) get(em *efsm.Machine) (*Program, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if r, ok := fc.m[em]; ok {
		return r.p, r.err
	}
	p, err := Compile(em)
	fc.m[em] = forResult{p: p, err: err}
	return p, err
}
