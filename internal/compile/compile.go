// Package compile implements the ECL flow's phase 2: translating the
// Esterel kernel module into an extended finite state machine
// (internal/efsm). It mirrors the automaton-style Esterel compilation
// the paper relies on.
//
// The compiler drives the reference interpreter symbolically: for each
// reachable control state it re-executes the reaction once per
// combination of input-presence and data-condition outcomes,
// discovering the combinations lazily through a decision log (a fresh
// test appends a decision; after each run the log backtracks
// depth-first). Every run's transcript — actions interleaved with the
// decisions that guarded them — is merged into the state's decision
// tree, so the resulting EFSM evaluates each data guard exactly where
// the source program did.
//
// A per-run constant store propagates values assigned earlier in the
// same reaction (for example a loop counter reset just before its
// bound test), which keeps intra-instant loops from forking
// unboundedly and prunes infeasible paths exactly as an Esterel
// compiler's case analysis would.
package compile

import (
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/cval"
	"repro/internal/dataexec"
	"repro/internal/efsm"
	"repro/internal/interp"
	"repro/internal/kernel"
	"repro/internal/lower"
	"repro/internal/sem"
)

// Options bound the exploration.
type Options struct {
	// MaxStates aborts compilation when exceeded (default 20000).
	MaxStates int
	// MaxRunsPerState aborts pathological guard explosion (default 65536).
	MaxRunsPerState int
	// MaxDecisionsPerRun bounds one reaction's decision log (default 64).
	MaxDecisionsPerRun int
}

func (o *Options) defaults() {
	if o.MaxStates == 0 {
		o.MaxStates = 20000
	}
	if o.MaxRunsPerState == 0 {
		o.MaxRunsPerState = 65536
	}
	if o.MaxDecisionsPerRun == 0 {
		o.MaxDecisionsPerRun = 64
	}
}

// Compile builds the EFSM for a lowered module with default options.
func Compile(res *lower.Result) (*efsm.Machine, error) {
	return CompileWith(res, Options{})
}

// CompileWith builds the EFSM with explicit exploration bounds.
func CompileWith(res *lower.Result, opts Options) (*efsm.Machine, error) {
	opts.defaults()
	c := &compiler{
		res:  res,
		opts: opts,
		m:    interp.NewMachine(res.Module, res.Info),
		out: &efsm.Machine{
			Name:    res.Module.Name,
			Mod:     res.Module,
			Info:    res.Info,
			Inputs:  res.Module.Inputs,
			Outputs: res.Module.Outputs,
		},
		states: make(map[string]*efsm.State),
	}
	c.m.SetHooks(&symHooks{c: c})
	c.m.InputHook = c.decideInput
	if err := c.run(); err != nil {
		return nil, err
	}
	return c.out, nil
}

type traceKind int

const (
	trAct traceKind = iota
	trInput
	trData
)

type traceItem struct {
	kind traceKind
	act  efsm.Action
	sig  *kernel.Signal // trInput
	expr kernel.Expr    // trData
	val  bool
}

// stateRec pairs an EFSM state with the interpreter control state that
// defines it.
type stateRec struct {
	es      *efsm.State
	ctl     *interp.State
	started bool
}

type compiler struct {
	res  *lower.Result
	opts Options
	m    *interp.Machine
	out  *efsm.Machine

	states map[string]*efsm.State
	work   []stateRec

	// Per-run state.
	decisions []bool
	diIdx     int
	trace     []traceItem
	consts    map[*kernel.Var]cval.Value
	runErr    error
}

// decide consumes the next decision, appending a fresh "true" when the
// log is exhausted.
func (c *compiler) decide() (bool, error) {
	if c.diIdx < len(c.decisions) {
		v := c.decisions[c.diIdx]
		c.diIdx++
		return v, nil
	}
	if len(c.decisions) >= c.opts.MaxDecisionsPerRun {
		return false, fmt.Errorf("reaction exceeds %d guard decisions (unbounded intra-instant branching?)", c.opts.MaxDecisionsPerRun)
	}
	c.decisions = append(c.decisions, true)
	c.diIdx++
	return true, nil
}

// backtrack flips the deepest remaining "true" decision; it returns
// false when the decision tree is exhausted.
func (c *compiler) backtrack() bool {
	i := len(c.decisions) - 1
	for i >= 0 && !c.decisions[i] {
		i--
	}
	if i < 0 {
		return false
	}
	c.decisions = c.decisions[:i+1]
	c.decisions[i] = false
	return true
}

func (c *compiler) decideInput(sig *kernel.Signal) interp.Status {
	v, err := c.decide()
	if err != nil {
		c.runErr = err
		return interp.Absent
	}
	c.trace = append(c.trace, traceItem{kind: trInput, sig: sig, val: v})
	if v {
		return interp.Present
	}
	return interp.Absent
}

// ---------------------------------------------------------------------------
// Symbolic data hooks

// constEnv lets dataexec evaluate expressions against the per-run
// constant store; anything unknown fails the evaluation, which the
// compiler treats as "not constant". The failures are sentinels: every
// EFSM synthesis tries many non-constant reads, and tryConst discards
// the error.
type constEnv struct{ c *compiler }

var (
	errVarNotConst   = errors.New("variable not constant here")
	errSignalUnknown = errors.New("signal value unknown at compile time")
)

func (e constEnv) VarValue(v *kernel.Var) (cval.Value, error) {
	if val, ok := e.c.consts[v]; ok {
		return val, nil
	}
	return cval.Value{}, errVarNotConst
}

func (e constEnv) SignalValue(*kernel.Signal) (cval.Value, error) {
	return cval.Value{}, errSignalUnknown
}

type symHooks struct{ c *compiler }

// tryConst evaluates an expression against the constant store.
func (h *symHooks) tryConst(e kernel.Expr) (cval.Value, bool) {
	ev := dataexec.New(h.c.res.Info, constEnv{h.c})
	ev.Limits.MaxSteps = 10_000
	v, err := ev.Eval(e)
	if err != nil {
		return cval.Value{}, false
	}
	return v, true
}

func (h *symHooks) EvalCond(e kernel.Expr) (bool, error) {
	if v, ok := h.tryConst(e); ok {
		// Constant under this reaction's earlier assignments: the
		// runtime will compute the same value, so no branch is needed.
		return v.Bool(), nil
	}
	v, err := h.c.decide()
	if err != nil {
		return false, err
	}
	h.c.trace = append(h.c.trace, traceItem{kind: trData, expr: e, val: v})
	return v, nil
}

func (h *symHooks) ExecAssign(lhs, rhs kernel.Expr) error {
	h.c.trace = append(h.c.trace, traceItem{kind: trAct, act: efsm.Action{
		Kind: efsm.ActAssign, LHS: lhs, RHS: rhs,
	}})
	h.c.noteAssign(lhs, rhs)
	return nil
}

func (h *symHooks) ExecEval(x kernel.Expr) error {
	h.c.trace = append(h.c.trace, traceItem{kind: trAct, act: efsm.Action{
		Kind: efsm.ActEval, X: x,
	}})
	// Side effects unknown: drop every constant rooted in a variable
	// the expression could write (conservatively, all of them).
	h.c.consts = make(map[*kernel.Var]cval.Value)
	return nil
}

func (h *symHooks) ExecData(f *kernel.DataFunc) error {
	h.c.trace = append(h.c.trace, traceItem{kind: trAct, act: efsm.Action{
		Kind: efsm.ActCall, F: f,
	}})
	// The data function may write any variable it can reach.
	h.c.consts = make(map[*kernel.Var]cval.Value)
	return nil
}

func (h *symHooks) EmitValue(sig *kernel.Signal, v *kernel.Expr) error {
	h.c.trace = append(h.c.trace, traceItem{kind: trAct, act: efsm.Action{
		Kind: efsm.ActEmit, Sig: sig, Value: v,
	}})
	return nil
}

// noteAssign updates the constant store for a simple var = const
// assignment and invalidates the target otherwise.
func (c *compiler) noteAssign(lhs, rhs kernel.Expr) {
	target := rootVar(lhs)
	if target == nil {
		// Unknown destination: stay safe, forget everything.
		c.consts = make(map[*kernel.Var]cval.Value)
		return
	}
	if _, simple := lhs.E.(*ast.Ident); simple {
		h := symHooks{c: c}
		if v, ok := h.tryConst(rhs); ok {
			c.consts[target] = v
			return
		}
	}
	delete(c.consts, target)
}

// rootVar finds the variable an lvalue writes through.
func rootVar(e kernel.Expr) *kernel.Var {
	cur := e.E
	for {
		switch x := cur.(type) {
		case *ast.Ident:
			if vi, ok := e.B.Info.UseOf(x).(*sem.VarInfo); ok {
				return e.B.Vars[vi]
			}
			return nil
		case *ast.Index:
			cur = x.X
		case *ast.Member:
			cur = x.X
		case *ast.Paren:
			cur = x.X
		default:
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// Exploration

func (c *compiler) stateFor(ctl *interp.State, started bool) (*efsm.State, bool) {
	key := fmt.Sprintf("%v|%s", started, ctl.Key())
	if s, ok := c.states[key]; ok {
		return s, false
	}
	s := &efsm.State{ID: len(c.out.States), Key: key}
	c.states[key] = s
	c.out.States = append(c.out.States, s)
	c.work = append(c.work, stateRec{es: s, ctl: ctl.Clone(), started: started})
	return s, true
}

func (c *compiler) run() error {
	boot, _ := c.stateFor(interp.NewState(), false)
	c.out.Initial = boot
	for len(c.work) > 0 {
		rec := c.work[0]
		c.work = c.work[1:]
		if err := c.exploreState(rec); err != nil {
			return fmt.Errorf("state %s: %w", rec.es.Key, err)
		}
		if len(c.out.States) > c.opts.MaxStates {
			return fmt.Errorf("EFSM exceeds %d states; the synchronous product is too large (the paper's code-size explosion) — compile modules separately or raise Options.MaxStates", c.opts.MaxStates)
		}
	}
	return nil
}

func (c *compiler) exploreState(rec stateRec) error {
	c.decisions = nil
	runs := 0
	for {
		runs++
		if runs > c.opts.MaxRunsPerState {
			return fmt.Errorf("more than %d guard combinations", c.opts.MaxRunsPerState)
		}
		c.diIdx = 0
		c.trace = c.trace[:0]
		c.consts = make(map[*kernel.Var]cval.Value)
		c.runErr = nil
		c.m.SetState(rec.ctl, rec.started)
		r, err := c.m.React(nil)
		if c.runErr != nil {
			return c.runErr
		}
		if err != nil {
			return err
		}
		var leaf *efsm.Leaf
		if r.Terminated {
			leaf = &efsm.Leaf{Terminal: true}
		} else {
			to, _ := c.stateFor(c.m.State(), true)
			leaf = &efsm.Leaf{To: to}
		}
		if err := insertTrace(&rec.es.Root, c.trace, leaf); err != nil {
			return err
		}
		if !c.backtrack() {
			return nil
		}
	}
}

// insertTrace merges one run's transcript into the state's decision
// tree. Shared decision prefixes produce shared subtrees.
func insertTrace(slot *efsm.Node, trace []traceItem, leaf *efsm.Leaf) error {
	for _, it := range trace {
		switch it.kind {
		case trAct:
			if *slot == nil {
				*slot = &efsm.ActNode{Act: it.act}
			}
			an, ok := (*slot).(*efsm.ActNode)
			if !ok || !sameAction(an.Act, it.act) {
				return fmt.Errorf("internal: trace mismatch at action %s", it.act)
			}
			slot = &an.Next
		case trInput:
			if *slot == nil {
				*slot = &efsm.InputBranch{Sig: it.sig}
			}
			ib, ok := (*slot).(*efsm.InputBranch)
			if !ok || ib.Sig != it.sig {
				return fmt.Errorf("internal: trace mismatch at input %s", it.sig.Name)
			}
			if it.val {
				slot = &ib.Then
			} else {
				slot = &ib.Else
			}
		case trData:
			if *slot == nil {
				*slot = &efsm.DataBranch{Expr: it.expr}
			}
			db, ok := (*slot).(*efsm.DataBranch)
			if !ok || db.Expr.E != it.expr.E || db.Expr.B != it.expr.B {
				return fmt.Errorf("internal: trace mismatch at data guard %s", it.expr)
			}
			if it.val {
				slot = &db.Then
			} else {
				slot = &db.Else
			}
		}
	}
	if *slot != nil {
		return fmt.Errorf("internal: duplicate trace (decision log exhausted early)")
	}
	*slot = leaf
	return nil
}

func sameAction(a, b efsm.Action) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case efsm.ActEmit:
		if a.Sig != b.Sig {
			return false
		}
		if (a.Value == nil) != (b.Value == nil) {
			return false
		}
		return a.Value == nil || (a.Value.E == b.Value.E && a.Value.B == b.Value.B)
	case efsm.ActAssign:
		return a.LHS.E == b.LHS.E && a.LHS.B == b.LHS.B && a.RHS.E == b.RHS.E && a.RHS.B == b.RHS.B
	case efsm.ActEval:
		return a.X.E == b.X.E && a.X.B == b.X.B
	case efsm.ActCall:
		return a.F == b.F
	}
	return false
}
