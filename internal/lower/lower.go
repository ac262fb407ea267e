// Package lower implements the ECL splitter and lowering: it turns an
// analyzed ECL module into an Esterel kernel module (internal/kernel)
// plus a set of extracted C data functions, following the paper's
// compilation scheme:
//
//   - reactive statements (await, emit, present, abort, par, loops that
//     halt) become kernel statements;
//   - data loops — loops that contain no halting statement and hence
//     would be instantaneous — are extracted as atomic C functions
//     called from the kernel;
//   - module instantiations are inlined, with per-instance renaming of
//     variables and local signals (recursion is rejected by sem).
//
// Two splitting policies are provided. MaximalReactive is the paper's
// current scheme ("translate as much of an ECL program as possible
// into Esterel"): only data loops are extracted, and all other data
// statements become kernel actions visible to EFSM case analysis.
// MinimalReactive is the paper's future-work scheme for legacy code:
// every maximal run of consecutive pure-data statements is extracted,
// keeping the kernel minimal.
package lower

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/kernel"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/token"
)

// Policy selects the splitting scheme.
type Policy int

// Splitting policies.
const (
	// MaximalReactive maps everything except data loops to the kernel
	// (the paper's implemented scheme).
	MaximalReactive Policy = iota
	// MinimalReactive extracts every pure-data run as a C function
	// (the paper's Section 6 future-work scheme).
	MinimalReactive
)

// String names the policy.
func (p Policy) String() string {
	if p == MinimalReactive {
		return "minimal"
	}
	return "maximal"
}

// Result bundles the outputs of lowering one top-level module.
type Result struct {
	Module *kernel.Module
	Info   *sem.Info
	Policy Policy
}

// Lower compiles the named module (inlining its instantiations) into a
// kernel module under the given policy.
//
// Lower never mutates the given Info: the resolution/type entries it
// records for synthesized AST nodes (initializer assignments, switch
// scratch variables) land in a derived view (sem.Info.Derive), which
// the Result and its kernel bindings carry. One analyzed Info can
// therefore be lowered concurrently for every module of a file — the
// contract the shared-front-end batch path and TestLowerPure rely on.
func Lower(info *sem.Info, name string, pol Policy, diags *source.DiagList) (*Result, error) {
	mi := info.Modules[name]
	if mi == nil {
		return nil, fmt.Errorf("module %q not found", name)
	}
	info = info.Derive()
	lw := &lowerer{
		info:   info,
		policy: pol,
		diags:  diags,
		mod:    &kernel.Module{Name: name},
	}
	root := &kernel.Binding{
		Info:  info,
		Vars:  make(map[*sem.VarInfo]*kernel.Var),
		Sigs:  make(map[*sem.SignalInfo]*kernel.Signal),
		Label: name,
	}
	// Interface signals of the root module face the environment.
	for _, sp := range mi.Params {
		sig := &kernel.Signal{Name: sp.Name, Pure: sp.Pure, Type: sp.ValueType}
		if sp.Dir == ast.In {
			sig.Class = kernel.Input
			lw.mod.Inputs = append(lw.mod.Inputs, sig)
		} else {
			sig.Class = kernel.Output
			lw.mod.Outputs = append(lw.mod.Outputs, sig)
		}
		root.Sigs[sp] = sig
	}
	body := lw.lowerInstance(mi, root)
	lw.mod.Body = body
	lw.mod.Number()
	if err := lw.mod.Validate(); err != nil {
		return nil, err
	}
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	return &Result{Module: lw.mod, Info: info, Policy: pol}, nil
}

type lowerer struct {
	info   *sem.Info
	policy Policy
	diags  *source.DiagList
	mod    *kernel.Module

	trapSeq int
	funcSeq int
	varSeq  int
	instSeq int
}

// loopCtx tracks the targets for break and continue.
type loopCtx struct {
	brk  *kernel.Trap
	cont *kernel.Trap // nil inside switch
}

// instCtx is the per-instance lowering context.
type instCtx struct {
	b     *kernel.Binding
	mi    *sem.ModuleInfo
	loops []loopCtx
}

func (lw *lowerer) errorf(pos source.Pos, format string, args ...interface{}) {
	lw.diags.Errorf(pos, format, args...)
}

// lowerInstance lowers one module instance body. The binding must have
// all interface params mapped to signals already.
func (lw *lowerer) lowerInstance(mi *sem.ModuleInfo, b *kernel.Binding) kernel.Stmt {
	// Fresh variables for this instance.
	for _, vi := range mi.Vars {
		kv := &kernel.Var{Name: b.Label + "." + vi.Mangled, Type: vi.Type}
		b.Vars[vi] = kv
		lw.mod.Vars = append(lw.mod.Vars, kv)
	}
	cx := &instCtx{b: b, mi: mi}
	return lw.lowerBlock(cx, mi.Decl.Body.Stmts)
}

// ---------------------------------------------------------------------------
// Purity classification

// isData reports whether s is pure data: no reactive statements, no
// module instantiation, and no break/continue that would escape s.
func (lw *lowerer) isData(s ast.Stmt) bool { return lw.dataOK(s, 0) }

func (lw *lowerer) dataOK(s ast.Stmt, loopDepth int) bool {
	switch s := s.(type) {
	case nil, *ast.Empty, *ast.VarDecl:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.Call); ok && lw.info.IsInst[call] {
			return false
		}
		return true
	case *ast.Block:
		for _, st := range s.Stmts {
			if !lw.dataOK(st, loopDepth) {
				return false
			}
		}
		return true
	case *ast.If:
		return lw.dataOK(s.Then, loopDepth) && lw.dataOK(s.Else, loopDepth)
	case *ast.While:
		return lw.dataOK(s.Body, loopDepth+1)
	case *ast.DoWhile:
		return lw.dataOK(s.Body, loopDepth+1)
	case *ast.For:
		return lw.dataOK(s.Init, loopDepth) && lw.dataOK(s.Post, loopDepth) && lw.dataOK(s.Body, loopDepth+1)
	case *ast.Switch:
		for _, c := range s.Cases {
			for _, st := range c.Body {
				if !lw.dataOK(st, loopDepth+1) {
					return false
				}
			}
		}
		return true
	case *ast.Break, *ast.Continue:
		return loopDepth > 0
	case *ast.Return:
		return false
	default:
		// Await, Halt, Emit, Present, DoPreempt, Par, SignalDecl.
		return false
	}
}

func isLoopStmt(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.While, *ast.DoWhile, *ast.For:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Blocks and the splitter

// lowerBlock lowers a statement list, applying the splitting policy:
// pure-data runs become DataCalls (always for loops; for everything in
// the minimal policy), the rest lowers to kernel statements. A signal
// declaration scopes the remainder of the block.
func (lw *lowerer) lowerBlock(cx *instCtx, stmts []ast.Stmt) kernel.Stmt {
	var out []kernel.Stmt
	i := 0
	for i < len(stmts) {
		s := stmts[i]
		// Local signal: wrap the rest of the block in its scope.
		if sd, ok := s.(*ast.SignalDecl); ok {
			sig := lw.lowerSignalDecl(cx, sd)
			rest := lw.lowerBlock(cx, stmts[i+1:])
			out = append(out, &kernel.Local{Sig: sig, Body: rest})
			return seq(out)
		}
		if lw.policy == MinimalReactive && lw.isData(s) && !isTrivialData(s) {
			// Gather the maximal pure-data run.
			j := i
			for j < len(stmts) && lw.isData(stmts[j]) {
				if _, isSig := stmts[j].(*ast.SignalDecl); isSig {
					break
				}
				j++
			}
			out = append(out, lw.extractData(cx, stmts[i:j]))
			i = j
			continue
		}
		out = append(out, lw.lowerStmt(cx, s))
		i++
	}
	return seq(out)
}

// isTrivialData reports statements not worth extracting even under the
// minimal policy (declarations without initializers, empty statements).
func isTrivialData(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.Empty:
		return true
	case *ast.VarDecl:
		return s.Init == nil
	}
	return false
}

// extractData builds a DataFunc from a run of pure-data statements and
// returns the kernel call. Variable declarations with initializers are
// kept in the extracted body (dataexec scopes them).
func (lw *lowerer) extractData(cx *instCtx, run []ast.Stmt) kernel.Stmt {
	lw.funcSeq++
	f := &kernel.DataFunc{
		Name: fmt.Sprintf("%s_data%d", sanitize(cx.b.Label), lw.funcSeq),
		B:    cx.b,
		Body: run,
	}
	lw.mod.Funcs = append(lw.mod.Funcs, f)
	return &kernel.DataCall{F: f}
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '.' || c == '/' {
			c = '_'
		}
		out = append(out, c)
	}
	return string(out)
}

func seq(list []kernel.Stmt) kernel.Stmt {
	switch len(list) {
	case 0:
		return &kernel.Nothing{}
	case 1:
		return list[0]
	}
	return &kernel.Seq{List: list}
}

// ---------------------------------------------------------------------------
// Statements

func (lw *lowerer) lowerStmt(cx *instCtx, s ast.Stmt) kernel.Stmt {
	switch s := s.(type) {
	case *ast.Block:
		return lw.lowerBlock(cx, s.Stmts)

	case *ast.Empty:
		return &kernel.Nothing{}

	case *ast.VarDecl:
		v := cx.b.Vars[lw.varInfoFor(cx, s)]
		if s.Init == nil || v == nil {
			return &kernel.Nothing{}
		}
		lhs := &ast.Ident{NamePos: s.Pos(), Name: s.Name}
		lw.info.SetUse(lhs, lw.varInfoFor(cx, s))
		return &kernel.Assign{
			LHS: kernel.Expr{B: cx.b, E: lhs},
			RHS: kernel.Expr{B: cx.b, E: s.Init},
		}

	case *ast.ExprStmt:
		return lw.lowerExprStmt(cx, s)

	case *ast.If:
		// A pure-data loop inside an arm still gets extracted by the
		// recursive lowering of the arm.
		return &kernel.IfData{
			Cond: kernel.Expr{B: cx.b, E: s.Cond},
			Then: lw.lowerStmt(cx, s.Then),
			Else: lw.lowerOptStmt(cx, s.Else),
		}

	case *ast.While:
		if lw.isData(s) {
			return lw.extractData(cx, []ast.Stmt{s})
		}
		return lw.lowerWhile(cx, s)

	case *ast.DoWhile:
		if lw.isData(s) {
			return lw.extractData(cx, []ast.Stmt{s})
		}
		return lw.lowerDoWhile(cx, s)

	case *ast.For:
		if lw.isData(s) {
			return lw.extractData(cx, []ast.Stmt{s})
		}
		return lw.lowerFor(cx, s)

	case *ast.Switch:
		if lw.isData(s) && lw.policy == MinimalReactive {
			return lw.extractData(cx, []ast.Stmt{s})
		}
		return lw.lowerSwitch(cx, s)

	case *ast.Break:
		if len(cx.loops) == 0 {
			lw.errorf(s.Pos(), "break outside loop")
			return &kernel.Nothing{}
		}
		return &kernel.Exit{Target: cx.loops[len(cx.loops)-1].brk}

	case *ast.Continue:
		for i := len(cx.loops) - 1; i >= 0; i-- {
			if cx.loops[i].cont != nil {
				return &kernel.Exit{Target: cx.loops[i].cont}
			}
		}
		lw.errorf(s.Pos(), "continue outside loop")
		return &kernel.Nothing{}

	case *ast.Emit:
		sig := lw.signalOf(cx, s.Signal)
		if sig == nil {
			return &kernel.Nothing{}
		}
		e := &kernel.Emit{Sig: sig}
		if s.Value != nil {
			e.Value = &kernel.Expr{B: cx.b, E: s.Value}
		}
		return e

	case *ast.Await:
		if s.Sig == nil {
			return &kernel.Pause{}
		}
		return &kernel.Await{Sig: lw.lowerSigExpr(cx, s.Sig)}

	case *ast.Halt:
		return &kernel.Halt{}

	case *ast.Present:
		return &kernel.Present{
			Sig:  lw.lowerSigExpr(cx, s.Sig),
			Then: lw.lowerStmt(cx, s.Then),
			Else: lw.lowerOptStmt(cx, s.Else),
		}

	case *ast.DoPreempt:
		body := lw.lowerStmt(cx, s.Body)
		sig := lw.lowerSigExpr(cx, s.Sig)
		if s.Kind == ast.Susp {
			return &kernel.Suspend{Body: body, Sig: sig}
		}
		return &kernel.Abort{
			Body:    body,
			Sig:     sig,
			Weak:    s.Kind == ast.Weak,
			Handler: lw.lowerOptStmt(cx, s.Handler),
		}

	case *ast.Par:
		p := &kernel.Par{}
		for _, b := range s.Branches {
			p.Branches = append(p.Branches, lw.lowerStmt(cx, b))
		}
		return p

	case *ast.SignalDecl:
		// A signal declaration as the last statement scopes nothing.
		sig := lw.lowerSignalDecl(cx, s)
		return &kernel.Local{Sig: sig, Body: &kernel.Nothing{}}

	case *ast.Return:
		lw.errorf(s.Pos(), "return in module body")
		return &kernel.Nothing{}
	}
	lw.errorf(s.Pos(), "cannot lower %T", s)
	return &kernel.Nothing{}
}

func (lw *lowerer) lowerOptStmt(cx *instCtx, s ast.Stmt) kernel.Stmt {
	if s == nil {
		return nil
	}
	return lw.lowerStmt(cx, s)
}

func (lw *lowerer) lowerSignalDecl(cx *instCtx, sd *ast.SignalDecl) *kernel.Signal {
	si := cx.mi.Signal(sd.Name)
	sig := &kernel.Signal{
		Name:  cx.b.Label + "." + sd.Name,
		Class: kernel.LocalSig,
		Pure:  sd.Pure,
	}
	if si != nil {
		sig.Type = si.ValueType
		cx.b.Sigs[si] = sig
	}
	lw.mod.Locals = append(lw.mod.Locals, sig)
	return sig
}

func (lw *lowerer) varInfoFor(cx *instCtx, d *ast.VarDecl) *sem.VarInfo {
	return lw.info.VarOf[d]
}

// signalOf resolves a signal identifier through sem.Uses and the
// instance binding.
func (lw *lowerer) signalOf(cx *instCtx, id *ast.Ident) *kernel.Signal {
	obj := lw.info.UseOf(id)
	si, ok := obj.(*sem.SignalInfo)
	if !ok {
		lw.errorf(id.Pos(), "%q does not resolve to a signal", id.Name)
		return nil
	}
	sig := cx.b.Sigs[si]
	if sig == nil {
		lw.errorf(id.Pos(), "internal: signal %q unbound in instance %s", id.Name, cx.b.Label)
	}
	return sig
}

func (lw *lowerer) lowerSigExpr(cx *instCtx, e ast.Expr) kernel.SigExpr {
	switch e := e.(type) {
	case *ast.Ident:
		sig := lw.signalOf(cx, e)
		if sig == nil {
			return &kernel.SigRef{Sig: &kernel.Signal{Name: "<error>", Pure: true}}
		}
		return &kernel.SigRef{Sig: sig}
	case *ast.Paren:
		return lw.lowerSigExpr(cx, e.X)
	case *ast.Unary:
		return &kernel.SigNot{X: lw.lowerSigExpr(cx, e.X)}
	case *ast.Binary:
		x := lw.lowerSigExpr(cx, e.X)
		y := lw.lowerSigExpr(cx, e.Y)
		if e.Op == token.AND {
			return &kernel.SigAnd{X: x, Y: y}
		}
		return &kernel.SigOr{X: x, Y: y}
	}
	lw.errorf(e.Pos(), "invalid signal expression")
	return &kernel.SigRef{Sig: &kernel.Signal{Name: "<error>", Pure: true}}
}

// ---------------------------------------------------------------------------
// Expression statements

func (lw *lowerer) lowerExprStmt(cx *instCtx, s *ast.ExprStmt) kernel.Stmt {
	if call, ok := s.X.(*ast.Call); ok && lw.info.IsInst[call] {
		return lw.inline(cx, call)
	}
	return lw.lowerExprAction(cx, s.X)
}

// lowerExprAction turns an expression with side effects into kernel
// data actions.
func (lw *lowerer) lowerExprAction(cx *instCtx, e ast.Expr) kernel.Stmt {
	switch e := e.(type) {
	case *ast.Binary:
		if e.Op == token.COMMA {
			return seq([]kernel.Stmt{
				lw.lowerExprAction(cx, e.X),
				lw.lowerExprAction(cx, e.Y),
			})
		}
	case *ast.Paren:
		return lw.lowerExprAction(cx, e.X)
	case *ast.Assign:
		if e.Op == token.ASSIGN {
			return &kernel.Assign{
				LHS: kernel.Expr{B: cx.b, E: e.LHS},
				RHS: kernel.Expr{B: cx.b, E: e.RHS},
			}
		}
	}
	return &kernel.Eval{X: kernel.Expr{B: cx.b, E: e}}
}

// ---------------------------------------------------------------------------
// Loops

func (lw *lowerer) newTrap(prefix string) *kernel.Trap {
	lw.trapSeq++
	return &kernel.Trap{Name: fmt.Sprintf("%s%d", prefix, lw.trapSeq)}
}

// condIsConstTrue reports whether a loop condition is a non-zero
// constant (while(1)).
func (lw *lowerer) condIsConstTrue(e ast.Expr) bool {
	if e == nil {
		return true
	}
	v, ok := lw.info.ConstEval(e)
	return ok && v != 0
}

func (lw *lowerer) lowerWhile(cx *instCtx, s *ast.While) kernel.Stmt {
	brk := lw.newTrap("brk")
	cont := lw.newTrap("cont")
	cx.loops = append(cx.loops, loopCtx{brk: brk, cont: cont})
	body := lw.lowerStmt(cx, s.Body)
	cx.loops = cx.loops[:len(cx.loops)-1]

	cont.Body = body
	var iter kernel.Stmt = cont
	if !lw.condIsConstTrue(s.Cond) {
		iter = &kernel.Seq{List: []kernel.Stmt{
			&kernel.IfData{
				Cond: kernel.Expr{B: cx.b, E: s.Cond},
				Then: nil,
				Else: &kernel.Exit{Target: brk},
			},
			cont,
		}}
	}
	brk.Body = &kernel.Loop{Body: iter}
	return brk
}

func (lw *lowerer) lowerDoWhile(cx *instCtx, s *ast.DoWhile) kernel.Stmt {
	brk := lw.newTrap("brk")
	cont := lw.newTrap("cont")
	cx.loops = append(cx.loops, loopCtx{brk: brk, cont: cont})
	body := lw.lowerStmt(cx, s.Body)
	cx.loops = cx.loops[:len(cx.loops)-1]

	cont.Body = body
	iter := &kernel.Seq{List: []kernel.Stmt{
		cont,
		&kernel.IfData{
			Cond: kernel.Expr{B: cx.b, E: s.Cond},
			Then: nil,
			Else: &kernel.Exit{Target: brk},
		},
	}}
	brk.Body = &kernel.Loop{Body: iter}
	return brk
}

func (lw *lowerer) lowerFor(cx *instCtx, s *ast.For) kernel.Stmt {
	brk := lw.newTrap("brk")
	cont := lw.newTrap("cont")

	var pre kernel.Stmt = &kernel.Nothing{}
	if s.Init != nil {
		pre = lw.lowerStmt(cx, s.Init)
	}

	cx.loops = append(cx.loops, loopCtx{brk: brk, cont: cont})
	body := lw.lowerStmt(cx, s.Body)
	cx.loops = cx.loops[:len(cx.loops)-1]
	cont.Body = body

	var post kernel.Stmt = &kernel.Nothing{}
	if s.Post != nil {
		post = lw.lowerStmt(cx, s.Post)
	}

	var iter []kernel.Stmt
	if !lw.condIsConstTrue(s.Cond) {
		iter = append(iter, &kernel.IfData{
			Cond: kernel.Expr{B: cx.b, E: s.Cond},
			Then: nil,
			Else: &kernel.Exit{Target: brk},
		})
	}
	iter = append(iter, cont, post)
	brk.Body = &kernel.Loop{Body: &kernel.Seq{List: iter}}
	return seq([]kernel.Stmt{pre, brk})
}

// ---------------------------------------------------------------------------
// Switch

func (lw *lowerer) lowerSwitch(cx *instCtx, s *ast.Switch) kernel.Stmt {
	// Reject fallthrough: every non-final case body must end in break.
	// That includes an empty clause sharing its body with the next one
	// (case 1: default: ...), which the if-chain below cannot express.
	for ci, c := range s.Cases {
		if ci == len(s.Cases)-1 {
			continue
		}
		var last ast.Stmt
		if n := len(c.Body); n > 0 {
			last = c.Body[n-1]
		}
		if _, ok := last.(*ast.Break); !ok {
			lw.errorf(c.KwPos, "switch case must end with break (fallthrough into the next case is not supported in reactive context)")
		}
	}
	// Evaluate the tag once into a scratch variable.
	lw.varSeq++
	tagType := lw.info.TypeOf(s.Tag)
	if tagType == nil {
		tagType = ctypes.Int
	}
	tmp := &kernel.Var{Name: fmt.Sprintf("%s.swtag%d", cx.b.Label, lw.varSeq), Type: tagType}
	lw.mod.Vars = append(lw.mod.Vars, tmp)
	tmpInfo := &sem.VarInfo{Name: tmp.Name, Mangled: tmp.Name, Type: tagType}
	cx.b.Vars[tmpInfo] = tmp
	tagRef := &ast.Ident{NamePos: s.Pos(), Name: tmp.Name}
	lw.info.SetUse(tagRef, tmpInfo)
	lw.info.SetExprType(tagRef, tagType)

	brk := lw.newTrap("sw")
	cx.loops = append(cx.loops, loopCtx{brk: brk})

	// Build the if-chain from the last case backwards.
	var chain kernel.Stmt
	var defaultBody kernel.Stmt
	for _, c := range s.Cases {
		if c.Values == nil {
			var body []kernel.Stmt
			for _, st := range c.Body {
				body = append(body, lw.lowerStmt(cx, st))
			}
			defaultBody = seq(body)
		}
	}
	chain = defaultBody
	if chain == nil {
		chain = &kernel.Nothing{}
	}
	for i := len(s.Cases) - 1; i >= 0; i-- {
		c := s.Cases[i]
		if c.Values == nil {
			continue
		}
		var cond ast.Expr
		for _, v := range c.Values {
			eq := &ast.Binary{X: tagRef, Op: token.EQL, Y: v}
			lw.info.SetExprType(eq, ctypes.Int)
			if cond == nil {
				cond = eq
			} else {
				or := &ast.Binary{X: cond, Op: token.LOR, Y: eq}
				lw.info.SetExprType(or, ctypes.Int)
				cond = or
			}
		}
		var body []kernel.Stmt
		for _, st := range c.Body {
			body = append(body, lw.lowerStmt(cx, st))
		}
		chain = &kernel.IfData{
			Cond: kernel.Expr{B: cx.b, E: cond},
			Then: seq(body),
			Else: chain,
		}
	}
	cx.loops = cx.loops[:len(cx.loops)-1]

	brk.Body = chain
	return seq([]kernel.Stmt{
		&kernel.Assign{
			LHS: kernel.Expr{B: cx.b, E: tagRef},
			RHS: kernel.Expr{B: cx.b, E: s.Tag},
		},
		brk,
	})
}

// ---------------------------------------------------------------------------
// Module instantiation (inlining)

func (lw *lowerer) inline(cx *instCtx, call *ast.Call) kernel.Stmt {
	ref, _ := lw.info.UseOf(call.Fun).(*sem.ModuleRef)
	if ref == nil {
		lw.errorf(call.Pos(), "internal: unresolved module instantiation")
		return &kernel.Nothing{}
	}
	callee := ref.Module
	if len(call.Args) != len(callee.Params) {
		return &kernel.Nothing{} // sem reported the arity error
	}
	lw.instSeq++
	child := &kernel.Binding{
		Info:  lw.info,
		Vars:  make(map[*sem.VarInfo]*kernel.Var),
		Sigs:  make(map[*sem.SignalInfo]*kernel.Signal),
		Label: fmt.Sprintf("%s.%s%d", cx.b.Label, callee.Name, lw.instSeq),
	}
	for i, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		si, _ := lw.info.UseOf(id).(*sem.SignalInfo)
		if si == nil {
			continue
		}
		actual := cx.b.Sigs[si]
		if actual == nil {
			lw.errorf(arg.Pos(), "internal: unbound signal argument %q", id.Name)
			continue
		}
		child.Sigs[callee.Params[i]] = actual
	}
	return lw.lowerInstance(callee, child)
}
