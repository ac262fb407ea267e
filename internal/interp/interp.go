// Package interp is the reference interpreter for the Esterel kernel
// IR: it executes one synchronous reaction at a time under Esterel's
// logical semantics. Parallel branches run as cooperatively scheduled
// threads; a thread that tests an undetermined signal blocks, and when
// no thread can run, signals that no remaining code can emit are set
// absent (a conservative Can analysis). If that resolves nothing, the
// reaction fails with a causality error.
//
// Every thread runs on the goroutine that calls React. A thread waits
// at only two points, an undetermined test and a par's join, and it
// waits by returning: each statement on its path that has done work a
// second run must not repeat keeps a frame of its locals on the thread
// (a sequence's index, a loop's iteration, a par's child threads, an
// if's arm, a weak abort's running handler). The scheduler resumes the
// thread by running its body again; each statement takes its frame
// back and goes straight to the child it was in, and the others route
// by the control state or test again, which gives the same answer,
// since a signal's status does not change within an instant once it is
// known. A failed reaction just returns, and a panic in a data action
// reaches React's caller.
//
// The interpreter is used three ways: directly as the simulation
// semantics, by the EFSM compiler (internal/compile) with symbolic
// data hooks, and by tests as the oracle the compiled EFSM must match.
package interp

import (
	"fmt"
	"sort"

	"repro/internal/cval"
	"repro/internal/dataexec"
	"repro/internal/kernel"
	"repro/internal/sem"
)

// Status is a three-valued signal presence.
type Status int

// Presence values.
const (
	Unknown Status = iota
	Present
	Absent
)

// DataHooks abstracts the data side of a reaction so that the EFSM
// compiler can run reactions symbolically. The default hooks execute
// concretely against the machine's stores.
type DataHooks interface {
	// EvalCond decides an IfData condition.
	EvalCond(e kernel.Expr) (bool, error)
	// ExecAssign performs an inline assignment action.
	ExecAssign(lhs, rhs kernel.Expr) error
	// ExecEval evaluates an expression action for side effects.
	ExecEval(x kernel.Expr) error
	// ExecData runs an extracted data function atomically.
	ExecData(f *kernel.DataFunc) error
	// EmitValue handles the value part of a valued emit.
	EmitValue(sig *kernel.Signal, v *kernel.Expr) error
}

// Inputs maps present input signals to their carried values for one
// instant (pure inputs map to an invalid Value).
type Inputs map[*kernel.Signal]cval.Value

// Reaction reports the result of one instant.
type Reaction struct {
	// Emitted lists every signal emitted this instant, in emission order.
	Emitted []*kernel.Signal
	// Outputs holds the emitted output-class signals and their values.
	Outputs map[*kernel.Signal]cval.Value
	// Terminated reports whether the program finished.
	Terminated bool
}

// CausalityError reports a reaction that could not be scheduled.
type CausalityError struct {
	Module  string
	Blocked []string // descriptions of blocked tests
}

// Error describes the blocked signal tests.
func (e *CausalityError) Error() string {
	return fmt.Sprintf("causality error in %s: no schedulable order for %v", e.Module, e.Blocked)
}

// Machine executes reactions over a kernel module.
type Machine struct {
	Mod  *kernel.Module
	Info *sem.Info

	state        *State
	started      bool
	done         bool
	vars         map[*kernel.Var]cval.Value
	sigVals      map[*kernel.Signal]cval.Value
	hooks        DataHooks
	canStartMemo map[kernel.Stmt]canInfo
	hasExit      map[kernel.Stmt]bool

	// InputHook, when set, decides the presence of an input signal the
	// first time a reaction tests it, instead of presetting all inputs
	// from React's argument. The EFSM compiler uses it to explore input
	// combinations lazily.
	InputHook func(*kernel.Signal) Status
}

// loopLimit bounds a loop's restarts within one instant
// (instantaneous loop detection).
const loopLimit = 4096

// NewMachine builds a machine with concrete data execution.
func NewMachine(mod *kernel.Module, info *sem.Info) *Machine {
	m := &Machine{
		Mod:          mod,
		Info:         info,
		state:        NewState(),
		vars:         make(map[*kernel.Var]cval.Value),
		sigVals:      make(map[*kernel.Signal]cval.Value),
		canStartMemo: make(map[kernel.Stmt]canInfo),
		hasExit:      make(map[kernel.Stmt]bool),
	}
	for _, v := range mod.Vars {
		m.vars[v] = cval.New(v.Type)
	}
	for _, s := range mod.Signals() {
		if !s.Pure && s.Type != nil {
			m.sigVals[s] = cval.New(s.Type)
		}
	}
	kernel.Walk(mod.Body, func(s kernel.Stmt) {
		found := false
		kernel.Walk(s, func(n kernel.Stmt) {
			if _, ok := n.(*kernel.Exit); ok {
				found = true
			}
		})
		m.hasExit[s] = found
	})
	m.hooks = &concreteHooks{m: m}
	return m
}

// SetHooks replaces the data hooks (used by the EFSM compiler).
func (m *Machine) SetHooks(h DataHooks) { m.hooks = h }

// State returns a clone of the current control state.
func (m *Machine) State() *State { return m.state.Clone() }

// SetState forces the control state (used when exploring states).
func (m *Machine) SetState(s *State, started bool) {
	m.state = s.Clone()
	m.started = started
	m.done = false
}

// Terminated reports whether the program has finished.
func (m *Machine) Terminated() bool { return m.done }

// VarValue implements dataexec.Env.
func (m *Machine) VarValue(v *kernel.Var) (cval.Value, error) {
	val, ok := m.vars[v]
	if !ok {
		return cval.Value{}, fmt.Errorf("unknown variable %s", v.Name)
	}
	return val, nil
}

// SignalValue implements dataexec.Env.
func (m *Machine) SignalValue(s *kernel.Signal) (cval.Value, error) {
	val, ok := m.sigVals[s]
	if !ok {
		return cval.Value{}, fmt.Errorf("signal %s carries no value", s.Name)
	}
	return val, nil
}

// Snapshot is a deep copy of a machine's full execution state: the
// control residue plus every variable and signal-value store. It can
// be restored into the machine it came from or into any fresh machine
// over the same compiled module (same signal/variable identities),
// which is what lets sessions fork a simulation mid-run.
type Snapshot struct {
	owner   *kernel.Module
	state   *State
	started bool
	done    bool
	vars    map[*kernel.Var]cval.Value
	sigVals map[*kernel.Signal]cval.Value
}

// Snapshot captures the machine's current state.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{
		owner:   m.Mod,
		state:   m.state.Clone(),
		started: m.started,
		done:    m.done,
		vars:    cloneValues(m.vars),
		sigVals: cloneValues(m.sigVals),
	}
}

// Restore rewinds the machine to a snapshot taken from a machine over
// the same module; a snapshot of a different module instance is
// rejected, since its state is keyed by foreign node and signal
// identities.
func (m *Machine) Restore(s *Snapshot) error {
	if s.owner != m.Mod {
		return fmt.Errorf("snapshot belongs to a different module instance (%s)", s.owner.Name)
	}
	m.state = s.state.Clone()
	m.started = s.started
	m.done = s.done
	m.vars = cloneValues(s.vars)
	m.sigVals = cloneValues(s.sigVals)
	return nil
}

// Reset returns the machine to its boot state with zeroed stores.
func (m *Machine) Reset() {
	m.state = NewState()
	m.started = false
	m.done = false
	for v := range m.vars {
		m.vars[v] = cval.New(v.Type)
	}
	for s := range m.sigVals {
		m.sigVals[s] = cval.New(s.Type)
	}
}

// cloneValues deep-copies a value store.
func cloneValues[K comparable](src map[K]cval.Value) map[K]cval.Value {
	out := make(map[K]cval.Value, len(src))
	for k, v := range src {
		out[k] = v.Clone()
	}
	return out
}

// concreteHooks executes data actions against the machine stores.
type concreteHooks struct{ m *Machine }

func (h *concreteHooks) evaluator() *dataexec.Evaluator {
	return dataexec.New(h.m.Info, h.m)
}

func (h *concreteHooks) EvalCond(e kernel.Expr) (bool, error) {
	return h.evaluator().EvalBool(e)
}

func (h *concreteHooks) ExecAssign(lhs, rhs kernel.Expr) error {
	return h.evaluator().ExecAssign(lhs, rhs)
}

func (h *concreteHooks) ExecEval(x kernel.Expr) error {
	return h.evaluator().ExecEval(x)
}

func (h *concreteHooks) ExecData(f *kernel.DataFunc) error {
	return h.evaluator().ExecDataFunc(f)
}

func (h *concreteHooks) EmitValue(sig *kernel.Signal, v *kernel.Expr) error {
	if v == nil {
		return nil
	}
	val, err := h.evaluator().Eval(*v)
	if err != nil {
		return err
	}
	slot, ok := h.m.sigVals[sig]
	if !ok {
		return fmt.Errorf("signal %s carries no value", sig.Name)
	}
	return slot.Assign(val)
}

// React runs one instant with the given present inputs.
func (m *Machine) React(in Inputs) (*Reaction, error) {
	if m.done {
		return &Reaction{Terminated: true, Outputs: map[*kernel.Signal]cval.Value{}}, nil
	}
	r := &reaction{
		m:      m,
		status: make(map[*kernel.Signal]Status),
		next:   NewState(),
	}
	if m.InputHook == nil {
		for _, s := range m.Mod.Inputs {
			r.status[s] = Absent
		}
	}
	for sig, val := range in {
		r.status[sig] = Present
		if val.IsValid() {
			if slot, ok := m.sigVals[sig]; ok {
				if err := slot.Assign(val); err != nil {
					return nil, fmt.Errorf("input %s: %w", sig.Name, err)
				}
			}
		}
	}

	mode := modeStart
	if m.started {
		mode = modeResume
	}
	root := r.newThread(m.Mod.Body, mode)
	if err := r.schedule(); err != nil {
		return nil, err
	}

	m.state = r.next
	m.started = true
	out := &Reaction{Outputs: make(map[*kernel.Signal]cval.Value)}
	out.Emitted = r.emitted
	for _, sig := range r.emitted {
		if sig.Class == kernel.Output {
			if v, ok := m.sigVals[sig]; ok {
				out.Outputs[sig] = v.Clone()
			} else {
				out.Outputs[sig] = cval.Value{}
			}
		}
	}
	if root.comp.kind == compTerminated || root.comp.kind == compExited {
		m.done = true
		out.Terminated = true
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Reaction engine

type compKind int

const (
	compTerminated compKind = iota
	compPaused
	compExited
	// compBlocked: the thread waits on an undetermined test or on a
	// par's join, and its path has kept the frames to resume by.
	compBlocked
)

type completion struct {
	kind compKind
	trap *kernel.Trap
}

type threadState int

const (
	thReady threadState = iota
	thBlockedSig
	thWaitJoin
	thDone
)

type thread struct {
	r     *reaction
	state threadState
	body  kernel.Stmt
	mode  runMode
	// when blockedSig: the test and the statement that makes it.
	blockedAt   kernel.Stmt
	blockedExpr kernel.SigExpr
	// frames is what the statements on a blocked thread's path keep,
	// innermost first. A waitJoin thread's frames[0] is the par's.
	frames []frame
	// result when done:
	comp completion
}

// frame holds the locals of a statement that has done work this
// instant that a second run must not repeat: a Seq's child index, a
// Loop's iteration, an IfData's arm (1 then, 2 else), a par's branch
// statuses and child threads, or, with no locals, a weak abort whose
// handler runs after the body's final instant.
type frame struct {
	s        kernel.Stmt
	i        int
	statuses []int
	children []*thread
}

type runMode int

const (
	modeStart runMode = iota
	modeResume
)

type reaction struct {
	m       *Machine
	status  map[*kernel.Signal]Status
	emitted []*kernel.Signal
	next    *State
	threads []*thread
}

func (r *reaction) newThread(body kernel.Stmt, mode runMode) *thread {
	th := &thread{r: r, body: body, mode: mode}
	r.threads = append(r.threads, th)
	return th
}

// step runs the thread until it finishes or blocks. A blocked thread
// resumes by running its body again: each statement on its path takes
// back its frame and goes straight to the child it was in.
func (th *thread) step() error {
	comp, err := th.exec(th.body, th.mode)
	if err != nil || comp.kind == compBlocked {
		return err
	}
	if len(th.frames) > 0 {
		return fmt.Errorf("internal: thread finished with %d frames left", len(th.frames))
	}
	th.comp, th.state = comp, thDone
	return nil
}

// popFrame takes s's frame off the thread, if s kept one when the
// thread last blocked.
func (th *thread) popFrame(s kernel.Stmt) (frame, bool) {
	n := len(th.frames) - 1
	if n < 0 || th.frames[n].s != s {
		return frame{}, false
	}
	f := th.frames[n]
	th.frames = th.frames[:n]
	return f, true
}

// schedule runs ready threads until all are done, resolving blocked
// signal tests by the Can rule, and returns the first error.
func (r *reaction) schedule() error {
	steps := 0
	for {
		steps++
		if steps > 10_000_000 {
			return fmt.Errorf("scheduler exceeded step budget (diverging reaction)")
		}
		// Find a ready thread (deterministic: lowest index first).
		var ready *thread
		for _, th := range r.threads {
			if th.state == thReady {
				ready = th
				break
			}
		}
		if ready != nil {
			if err := ready.step(); err != nil {
				return err
			}
			// Check for completed joins after every step.
			r.completeJoins()
			continue
		}
		// No ready thread: are we done?
		allDone := true
		for _, th := range r.threads {
			if th.state != thDone {
				allDone = false
				break
			}
		}
		if allDone {
			return nil
		}
		// Quiescent: first wake any thread whose test has been decided
		// by an emission that happened after it blocked.
		woke := false
		for _, th := range r.threads {
			if th.state == thBlockedSig && r.evalSig(th.blockedExpr) != Unknown {
				th.state = thReady
				woke = true
			}
		}
		if woke {
			continue
		}
		// Then apply the Can rule.
		if !r.resolveAbsent() {
			var blocked []string
			for _, th := range r.threads {
				if th.state == thBlockedSig {
					blocked = append(blocked, th.blockedExpr.String())
				}
			}
			sort.Strings(blocked)
			return &CausalityError{Module: r.m.Mod.Name, Blocked: blocked}
		}
		// Wake all signal-blocked threads to retry their tests.
		for _, th := range r.threads {
			if th.state == thBlockedSig {
				th.state = thReady
			}
		}
	}
}

// completeJoins readies the threads whose par branches have all
// finished.
func (r *reaction) completeJoins() {
joins:
	for _, th := range r.threads {
		if th.state != thWaitJoin {
			continue
		}
		for _, c := range th.frames[0].children {
			if c != nil && c.state != thDone {
				continue joins
			}
		}
		th.state = thReady
	}
}

// resolveAbsent sets signals that no blocked or pending code can emit
// to absent. It returns false when nothing changed.
func (r *reaction) resolveAbsent() bool {
	potential := make(map[*kernel.Signal]bool)
	for _, th := range r.threads {
		if th.state == thBlockedSig || th.state == thWaitJoin {
			th.addCan(potential)
		}
	}
	changed := false
	// Any signal still unknown that nothing can emit becomes absent.
	for _, th := range r.threads {
		if th.state != thBlockedSig {
			continue
		}
		for _, sig := range th.blockedExpr.Signals(nil) {
			if r.statusOf(sig) == Unknown && !potential[sig] {
				r.status[sig] = Absent
				changed = true
			}
		}
	}
	return changed
}

func (r *reaction) statusOf(sig *kernel.Signal) Status {
	if s, ok := r.status[sig]; ok {
		return s
	}
	if sig.Class == kernel.Input && r.m.InputHook != nil {
		s := r.m.InputHook(sig)
		r.status[sig] = s
		return s
	}
	return Unknown
}

// emit makes the signal present and records it.
func (r *reaction) emit(sig *kernel.Signal) {
	r.status[sig] = Present
	r.emitted = append(r.emitted, sig)
}

// evalSig evaluates a presence formula three-valued.
func (r *reaction) evalSig(e kernel.SigExpr) Status {
	switch e := e.(type) {
	case *kernel.SigRef:
		return r.statusOf(e.Sig)
	case *kernel.SigNot:
		switch r.evalSig(e.X) {
		case Present:
			return Absent
		case Absent:
			return Present
		}
		return Unknown
	case *kernel.SigAnd:
		x, y := r.evalSig(e.X), r.evalSig(e.Y)
		if x == Absent || y == Absent {
			return Absent
		}
		if x == Present && y == Present {
			return Present
		}
		return Unknown
	case *kernel.SigOr:
		x, y := r.evalSig(e.X), r.evalSig(e.Y)
		if x == Present || y == Present {
			return Present
		}
		if x == Absent && y == Absent {
			return Absent
		}
		return Unknown
	}
	return Unknown
}

// ---------------------------------------------------------------------------
// Thread execution

// testSig evaluates e, the presence formula s tests. While e is
// undetermined the thread blocks on it: testSig returns Unknown and the
// caller returns compBlocked.
func (th *thread) testSig(s kernel.Stmt, e kernel.SigExpr) Status {
	st := th.r.evalSig(e)
	if st == Unknown {
		th.state, th.blockedAt, th.blockedExpr = thBlockedSig, s, e
	}
	return st
}

func (th *thread) exec(s kernel.Stmt, mode runMode) (completion, error) {
	r := th.r
	cur := r.m.state
	switch s := s.(type) {
	case *kernel.Nothing:
		return completion{kind: compTerminated}, nil

	case *kernel.Pause:
		if mode == modeResume && cur.get(s.ID()) != nil {
			return completion{kind: compTerminated}, nil
		}
		r.next.set(s.ID(), 1)
		return completion{kind: compPaused}, nil

	case *kernel.Halt:
		r.next.set(s.ID(), 1)
		return completion{kind: compPaused}, nil

	case *kernel.Await:
		if mode == modeResume && cur.get(s.ID()) != nil {
			switch th.testSig(s, s.Sig) {
			case Present:
				return completion{kind: compTerminated}, nil
			case Unknown:
				return completion{kind: compBlocked}, nil
			}
		}
		r.next.set(s.ID(), 1)
		return completion{kind: compPaused}, nil

	case *kernel.Emit:
		if err := r.m.hooks.EmitValue(s.Sig, s.Value); err != nil {
			return completion{}, err
		}
		r.emit(s.Sig)
		return completion{kind: compTerminated}, nil

	case *kernel.Assign:
		if err := r.m.hooks.ExecAssign(s.LHS, s.RHS); err != nil {
			return completion{}, err
		}
		return completion{kind: compTerminated}, nil

	case *kernel.Eval:
		if err := r.m.hooks.ExecEval(s.X); err != nil {
			return completion{}, err
		}
		return completion{kind: compTerminated}, nil

	case *kernel.DataCall:
		if err := r.m.hooks.ExecData(s.F); err != nil {
			return completion{}, err
		}
		return completion{kind: compTerminated}, nil

	case *kernel.Seq:
		start := 0
		if mode == modeResume {
			ent := cur.get(s.ID())
			if ent == nil {
				return completion{kind: compTerminated}, nil
			}
			start = ent[0]
		}
		i := start
		if f, ok := th.popFrame(s); ok {
			i = f.i
		}
		for ; i < len(s.List); i++ {
			childMode := modeStart
			if mode == modeResume && i == start {
				childMode = modeResume
			}
			comp, err := th.exec(s.List[i], childMode)
			if err != nil {
				return completion{}, err
			}
			switch comp.kind {
			case compBlocked:
				th.frames = append(th.frames, frame{s: s, i: i})
				return comp, nil
			case compPaused:
				r.next.set(s.ID(), i)
				return comp, nil
			case compExited:
				return comp, nil
			}
		}
		return completion{kind: compTerminated}, nil

	case *kernel.Loop:
		iter := 0
		if f, ok := th.popFrame(s); ok {
			iter = f.i
		}
		for ; ; iter++ {
			if iter > loopLimit {
				return completion{}, fmt.Errorf("instantaneous loop detected (node %d)", s.ID())
			}
			childMode := modeStart // loop back
			if iter == 0 {
				childMode = mode
			}
			comp, err := th.exec(s.Body, childMode)
			if err != nil {
				return completion{}, err
			}
			switch comp.kind {
			case compBlocked:
				th.frames = append(th.frames, frame{s: s, i: iter})
				return comp, nil
			case compPaused, compExited:
				return comp, nil
			}
		}

	case *kernel.Par:
		f, resumed := th.popFrame(s)
		if !resumed {
			f = frame{s: s, statuses: make([]int, len(s.Branches))}
			if mode == modeResume {
				ent := cur.get(s.ID())
				if ent == nil {
					return completion{kind: compTerminated}, nil
				}
				copy(f.statuses, ent)
			} else {
				for i := range f.statuses {
					f.statuses[i] = 1 // running
				}
			}
			// Spawn a thread per running branch and wait for them all.
			f.children = make([]*thread, len(s.Branches))
			waiting := false
			for i, b := range s.Branches {
				if f.statuses[i] == 1 {
					f.children[i] = r.newThread(b, mode)
					waiting = true
				}
			}
			if waiting {
				th.state = thWaitJoin
				th.frames = append(th.frames, f)
				return completion{kind: compBlocked}, nil
			}
		}
		// Collect completions.
		var exit *kernel.Trap
		anyPaused := false
		for i, c := range f.children {
			if c == nil {
				continue
			}
			switch c.comp.kind {
			case compTerminated:
				f.statuses[i] = 2
			case compPaused:
				anyPaused = true
			case compExited:
				// The outermost targeted trap (smallest preorder ID) wins.
				if exit == nil || c.comp.trap.ID() < exit.ID() {
					exit = c.comp.trap
				}
			}
		}
		if exit != nil {
			r.next.clearSubtree(s)
			return completion{kind: compExited, trap: exit}, nil
		}
		if !anyPaused {
			r.next.clear(s.ID())
			return completion{kind: compTerminated}, nil
		}
		r.next.set(s.ID(), f.statuses...)
		return completion{kind: compPaused}, nil

	case *kernel.Present:
		if mode == modeResume {
			return th.resumeArm(s, s.Then, s.Else)
		}
		switch th.testSig(s, s.Sig) {
		case Present:
			return th.execPart(s, s.Then, modeStart, 1)
		case Absent:
			return th.execPart(s, s.Else, modeStart, 2)
		}
		return completion{kind: compBlocked}, nil

	case *kernel.IfData:
		if mode == modeResume {
			return th.resumeArm(s, s.Then, s.Else)
		}
		// The arm taken is kept: synthesis decides EvalCond, and a
		// second call would decide again.
		arm := 1
		if f, ok := th.popFrame(s); ok {
			arm = f.i
		} else {
			val, err := r.m.hooks.EvalCond(s.Cond)
			if err != nil {
				return completion{}, err
			}
			if !val {
				arm = 2
			}
		}
		part := s.Then
		if arm == 2 {
			part = s.Else
		}
		comp, err := th.execPart(s, part, modeStart, arm)
		if comp.kind == compBlocked {
			th.frames = append(th.frames, frame{s: s, i: arm})
		}
		return comp, err

	case *kernel.Trap:
		comp, err := th.exec(s.Body, mode)
		if err != nil {
			return completion{}, err
		}
		if comp.kind == compExited && comp.trap == s {
			r.next.clearSubtree(s)
			return completion{kind: compTerminated}, nil
		}
		return comp, nil

	case *kernel.Exit:
		return completion{kind: compExited, trap: s.Target}, nil

	case *kernel.Abort:
		return th.execAbort(s, mode)

	case *kernel.Suspend:
		if mode == modeStart || !cur.hasActiveWithin(s.Body) {
			return th.exec(s.Body, modeStart)
		}
		switch th.testSig(s, s.Sig) {
		case Present:
			// Frozen: carry the body's control state over unchanged.
			r.next.copySubtree(cur, s.Body)
			return completion{kind: compPaused}, nil
		case Unknown:
			return completion{kind: compBlocked}, nil
		}
		return th.exec(s.Body, modeResume)

	case *kernel.Local:
		// A fresh scope each start; statuses are per-instant anyway.
		childMode := modeStart
		if mode == modeResume && cur.hasActiveWithin(s.Body) {
			childMode = modeResume
		}
		return th.exec(s.Body, childMode)
	}
	return completion{}, fmt.Errorf("internal: cannot execute %T", s)
}

// execPart runs part, a child of s, and records v as s's entry in the
// next state if part pauses. A missing part terminates.
func (th *thread) execPart(s, part kernel.Stmt, mode runMode, v int) (completion, error) {
	if part == nil {
		return completion{kind: compTerminated}, nil
	}
	comp, err := th.exec(part, mode)
	if err == nil && comp.kind == compPaused {
		th.r.next.set(s.ID(), v)
	}
	return comp, err
}

// resumeArm resumes the arm of a present or an if that holds control.
func (th *thread) resumeArm(s, then, els kernel.Stmt) (completion, error) {
	ent := th.r.m.state.get(s.ID())
	if ent == nil {
		return completion{kind: compTerminated}, nil
	}
	if ent[0] == 2 {
		then = els
	}
	return th.execPart(s, then, modeResume, ent[0])
}

func (th *thread) execAbort(s *kernel.Abort, mode runMode) (completion, error) {
	if mode == modeStart {
		// No trigger test in the first instant.
		return th.execPart(s, s.Body, modeStart, 1)
	}
	ent := th.r.m.state.get(s.ID())
	if ent == nil {
		return completion{kind: compTerminated}, nil
	}
	if ent[0] == 2 {
		// Resuming inside the handler.
		return th.execPart(s, s.Handler, modeResume, 2)
	}
	if _, ok := th.popFrame(s); ok {
		return th.weakHandler(s)
	}
	// Resuming inside the body: test the trigger first (delayed).
	switch th.testSig(s, s.Sig) {
	case Unknown:
		return completion{kind: compBlocked}, nil
	case Absent:
		return th.execPart(s, s.Body, modeResume, 1)
	}
	if !s.Weak {
		// Strong abort: the body does not run this instant.
		return th.execPart(s, s.Handler, modeStart, 2)
	}
	// Weak abort: the body runs its final instant. Normal termination
	// wins over the abort.
	comp, err := th.exec(s.Body, modeResume)
	if err != nil || comp.kind != compPaused {
		return comp, err
	}
	th.r.next.clearSubtree(s.Body)
	return th.weakHandler(s)
}

// weakHandler starts a weak abort's handler once the body has run its
// final instant. If the handler blocks, the abort keeps a frame, so
// that resuming does not run the body again.
func (th *thread) weakHandler(s *kernel.Abort) (completion, error) {
	comp, err := th.execPart(s, s.Handler, modeStart, 2)
	if comp.kind == compBlocked {
		th.frames = append(th.frames, frame{s: s})
	}
	return comp, err
}
