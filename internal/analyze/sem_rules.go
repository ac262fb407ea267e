package analyze

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/sem"
)

// The sem-level rules (ECL001–ECL004) inspect the analyzed module's
// declaration through sem.Info: name-resolution facts (Uses) identify
// which declared objects the body actually references. Only the
// design's top module is inspected — batch mode (eclvet -all) analyzes
// every module of a file as its own design, so instantiated modules
// get their own pass.

// semUse summarizes how the module body references signals.
type semUse struct {
	mi *sem.ModuleInfo
	// used holds every signal referenced anywhere in the body
	// (presence tests, value reads, emits, instantiation wiring).
	used map[*sem.SignalInfo]bool
	// usedVars holds every variable referenced anywhere in the body.
	usedVars map[*sem.VarInfo]bool
	// emitted holds signals the module can drive: emit/emit_v targets
	// plus signals wired to an output parameter of an instantiation.
	emitted map[*sem.SignalInfo]bool
	// tested holds the identifiers of presence tests (await, present,
	// abort/weak_abort/suspend guards), in source order.
	tested []*ast.Ident
}

// semUses walks the analyzed module's body once and classifies every
// signal/variable reference (memoized per pass).
func (p *pass) semUses() *semUse {
	if p.semDone {
		return p.sem
	}
	p.semDone = true
	info := p.design.Lowered.Info
	mi := info.Modules[p.module]
	if mi == nil || mi.Decl == nil {
		return nil
	}
	u := &semUse{
		mi:       mi,
		used:     make(map[*sem.SignalInfo]bool),
		usedVars: make(map[*sem.VarInfo]bool),
		emitted:  make(map[*sem.SignalInfo]bool),
	}
	noteSig := func(e ast.Expr, f func(*sem.SignalInfo, *ast.Ident)) {
		walkExpr(e, func(n ast.Node) {
			if id, ok := n.(*ast.Ident); ok {
				if si, ok := info.Uses[id].(*sem.SignalInfo); ok {
					f(si, id)
				}
			}
		})
	}
	walkStmt(mi.Decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			switch obj := info.Uses[n].(type) {
			case *sem.SignalInfo:
				u.used[obj] = true
			case *sem.VarInfo:
				u.usedVars[obj] = true
			}
		case *ast.Emit:
			if si, ok := info.Uses[n.Signal].(*sem.SignalInfo); ok {
				u.emitted[si] = true
			}
		case *ast.Await:
			noteSig(n.Sig, func(si *sem.SignalInfo, id *ast.Ident) { u.tested = append(u.tested, id) })
		case *ast.Present:
			noteSig(n.Sig, func(si *sem.SignalInfo, id *ast.Ident) { u.tested = append(u.tested, id) })
		case *ast.DoPreempt:
			noteSig(n.Sig, func(si *sem.SignalInfo, id *ast.Ident) { u.tested = append(u.tested, id) })
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.Call)
			if !ok || !info.IsInst[call] {
				break
			}
			ref, ok := info.Uses[call.Fun].(*sem.ModuleRef)
			if !ok {
				break
			}
			for i, arg := range call.Args {
				if i >= len(ref.Module.Params) || ref.Module.Params[i].Dir != ast.Out {
					continue
				}
				if id, ok := arg.(*ast.Ident); ok {
					if si, ok := info.Uses[id].(*sem.SignalInfo); ok {
						u.emitted[si] = true
					}
				}
			}
		}
	})
	p.sem = u
	return u
}

// unusedSignals is ECL001: an interface parameter or local signal that
// the module body never references at all.
func (p *pass) unusedSignals() {
	u := p.semUses()
	if u == nil {
		return
	}
	for _, si := range u.mi.Params {
		if u.used[si] {
			continue
		}
		pos := p.modulePos()
		for _, sp := range u.mi.Decl.Params {
			if sp.Name == si.Name {
				pos = sp.DirPos
				break
			}
		}
		p.report(pos, "%s signal %q is never used in module %q", si.Dir, si.Name, p.module)
	}
	for _, si := range u.mi.Locals {
		if u.used[si] {
			continue
		}
		pos, found := p.modulePos(), false
		walkStmt(u.mi.Decl.Body, func(n ast.Node) {
			if sd, ok := n.(*ast.SignalDecl); ok && sd.Name == si.Name && !found {
				pos, found = sd.Pos(), true
			}
		})
		p.report(pos, "local signal %q is never used in module %q", si.Name, p.module)
	}
}

// unusedVars is ECL002: a declared variable the module body never
// references (not even to assign it).
func (p *pass) unusedVars() {
	u := p.semUses()
	if u == nil {
		return
	}
	for _, vi := range u.mi.Vars {
		if u.usedVars[vi] || vi.Decl == nil {
			continue
		}
		p.report(vi.Decl.Pos(), "variable %q is declared but never used", vi.Name)
	}
}

// unusedFuncs is ECL003: a data function (with a body) that no module
// in the file can reach, directly or through other data functions.
// Reachability is a per-file fact sem records once (FuncInfo.Reached),
// seeded from every module body in the file, not just the analyzed
// module: a helper used only by a sibling module is not dead.
func (p *pass) unusedFuncs() {
	var dead []*sem.FuncInfo
	for _, fi := range p.design.Lowered.Info.Funcs {
		if !fi.Reached && fi.Decl != nil && fi.Decl.Body != nil {
			dead = append(dead, fi)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Name < dead[j].Name })
	for _, fi := range dead {
		p.report(fi.Decl.Pos(), "function %q is never called from any module", fi.Name)
	}
}

// deadAwaits is ECL004: a presence test (await/present/abort guard) of
// a signal the environment cannot drive — not an input parameter — and
// that nothing in the module emits or wires to an instantiation
// output. Such a test can never see the signal present.
func (p *pass) deadAwaits() {
	u := p.semUses()
	if u == nil {
		return
	}
	info := p.design.Lowered.Info
	for _, id := range u.tested {
		si, ok := info.Uses[id].(*sem.SignalInfo)
		if !ok {
			continue
		}
		if !si.Local && si.Dir == ast.In {
			continue // inputs are driven by the environment
		}
		if u.emitted[si] {
			continue
		}
		p.report(id.Pos(), "signal %q is tested here but never emitted in module %q (the test can never see it present)", si.Name, p.module)
	}
}
