// Package interp is the reference interpreter for the Esterel kernel
// IR: it executes one synchronous reaction at a time under Esterel's
// logical semantics. Parallel branches run as cooperatively scheduled
// threads; a thread that tests an undetermined signal blocks, and when
// no thread can run, signals that no remaining code can emit are set
// absent (a conservative Can analysis). If that resolves nothing, the
// reaction fails with a causality error.
//
// Each thread runs on a carrier goroutine taken from a bounded park of
// idle carriers that outlive the reaction. A reaction's threads are
// short-lived but recurse deeply, and EFSM synthesis runs every
// reaction of every module: a goroutine per thread would regrow its
// stack from the starting size each time, while a parked carrier keeps
// the stack that earlier threads grew.
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

// EmittedSet returns the emitted signals as a set.
func (r *Reaction) EmittedSet() map[*kernel.Signal]bool {
	s := make(map[*kernel.Signal]bool, len(r.Emitted))
	for _, sig := range r.Emitted {
		s[sig] = true
	}
	return s
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

	// LoopLimit bounds same-instant loop iterations (instantaneous
	// loop detection); zero means the default.
	LoopLimit int

	// InputHook, when set, decides the presence of an input signal the
	// first time a reaction tests it, instead of presetting all inputs
	// from React's argument. The EFSM compiler uses it to explore input
	// combinations lazily.
	InputHook func(*kernel.Signal) Status
}

// debugCan enables quiescence-failure dumps (tests only).
var debugCan = false

// defaultLoopLimit bounds same-instant loop restarts.
const defaultLoopLimit = 4096

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

// SetVar overwrites a variable (testing hook).
func (m *Machine) SetVar(name string, v cval.Value) error {
	for kv := range m.vars {
		if kv.Name == name {
			return m.vars[kv].Assign(v)
		}
	}
	return fmt.Errorf("no variable %q", name)
}

// VarByName returns a variable's current value (testing hook).
func (m *Machine) VarByName(name string) (cval.Value, bool) {
	for kv, v := range m.vars {
		if kv.Name == name {
			return v, true
		}
	}
	return cval.Value{}, false
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
	root := r.newThread(nil)
	comp, err := r.run(root, m.Mod.Body, mode)
	if err != nil {
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
	if comp.kind == compTerminated || comp.kind == compExited {
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
)

type completion struct {
	kind compKind
	trap *kernel.Trap
}

// cont is the within-instant continuation chain used only for the
// conservative Can analysis: what code could still run after the
// current point in this thread.
type cont struct {
	items []kernel.Stmt
	next  *cont
}

type killedPanic struct{}

type threadState int

const (
	thReady threadState = iota
	thRunning
	thBlockedSig
	thWaitJoin
	thDone
)

type thread struct {
	id     int
	r      *reaction
	parent *thread

	resume chan struct{}
	yield  chan struct{}

	state threadState
	// when blockedSig:
	blockedExpr kernel.SigExpr
	blockedCan  map[*kernel.Signal]bool
	// when waitJoin:
	joinPending int
	joinCan     map[*kernel.Signal]bool
	// result when done:
	comp completion
	err  error

	body kernel.Stmt
	mode runMode
	k    *cont
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
	killing bool
	failure error
}

func (r *reaction) newThread(parent *thread) *thread {
	th := &thread{
		id:     len(r.threads),
		r:      r,
		parent: parent,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		state:  thReady,
	}
	r.threads = append(r.threads, th)
	return th
}

// run executes the root statement in the root thread and drives the
// scheduler until the instant completes.
func (r *reaction) run(root *thread, body kernel.Stmt, mode runMode) (completion, error) {
	root.body = body
	root.mode = mode
	root.launch()
	if err := r.schedule(); err != nil {
		return completion{}, err
	}
	return root.comp, root.err
}

// parkSize bounds the idle carriers kept for reuse. A reaction holds
// one carrier per live thread until it ends, so the park only has to
// cover the threads of the reactions running at once. The designs at
// hand fork at most 7 threads in one reaction (eclgen's 1000-module
// files; 6 in the paper's stack), so 64 covers that on nine workers
// at once. A carrier that finds the park full exits rather than pin
// its stack for good.
const parkSize = 64

// parked holds idle carriers, each as the channel it takes its next
// thread from. Like a sync.Pool it is shared by every machine in the
// process, so a stack grown by one machine's reactions serves the next
// machine's.
var parked = make(chan chan *thread, parkSize)

// launch hands the thread to a parked carrier goroutine, starting a new
// carrier only when none is parked; the thread runs until its first
// yield. Carriers outlive reactions so that each thread runs on a stack
// that earlier threads already grew, instead of growing a fresh one.
func (th *thread) launch() {
	select {
	case c := <-parked:
		c <- th
	default:
		go carry(make(chan *thread), th)
	}
}

// carry runs threads on one goroutine: the given one, then each thread
// handed to it on c while it is parked. It parks before signalling a
// thread's end, so the next launch finds it, and touches nothing of the
// thread after that signal.
func carry(c chan *thread, th *thread) {
	for {
		th.run()
		var ok bool
		select {
		case parked <- c:
			ok = true
		default:
		}
		close(th.yield)
		if !ok {
			return
		}
		th = <-c
	}
}

// run executes the thread's body to completion, or until the reaction
// kills it, and records the result; the carrier then signals the end.
// A panic other than the kill propagates.
func (th *thread) run() {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(killedPanic); !ok {
				panic(p)
			}
			th.comp = completion{kind: compTerminated}
		}
		th.state = thDone
	}()
	<-th.resume
	comp, err := th.exec(th.body, th.mode, th.k)
	th.comp = comp
	th.err = err
	if err != nil && th.r.failure == nil {
		th.r.failure = err
	}
}

// step gives the thread the baton and waits for it to yield or finish.
func (th *thread) stepOnce() {
	th.state = thRunning
	th.resume <- struct{}{}
	<-th.yield
}

// yieldToScheduler parks the thread (already marked blocked/waiting)
// and waits to be resumed. Panics with killedPanic during shutdown.
func (th *thread) yieldToScheduler() {
	th.yield <- struct{}{}
	<-th.resume
	if th.r.killing {
		panic(killedPanic{})
	}
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
		if r.failure != nil {
			r.shutdown()
			return r.failure
		}
		// Find a ready thread (deterministic: lowest id first).
		var ready *thread
		for _, th := range r.threads {
			if th.state == thReady {
				ready = th
				break
			}
		}
		if ready != nil {
			if ready.yield == nil {
				return fmt.Errorf("internal: ready thread without goroutine")
			}
			ready.stepOnce()
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
			return r.failure
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
			if debugCan {
				fmt.Println("=== quiescence failure ===")
				for _, th := range r.threads {
					switch th.state {
					case thBlockedSig:
						var names []string
						for s := range th.blockedCan {
							names = append(names, s.Name)
						}
						var sts []string
						for _, sg := range th.blockedExpr.Signals(nil) {
							sts = append(sts, fmt.Sprintf("%s:%d(class=%v)", sg.Name, r.statusOf(sg), sg.Class))
						}
						fmt.Printf("thread %d blocked on %s, can=%v, status=%v\n", th.id, th.blockedExpr, names, sts)
					case thWaitJoin:
						var names []string
						for s := range th.joinCan {
							names = append(names, s.Name)
						}
						fmt.Printf("thread %d waitjoin, can=%v\n", th.id, names)
					case thDone:
						fmt.Printf("thread %d done\n", th.id)
					}
				}
			}
			var blocked []string
			for _, th := range r.threads {
				if th.state == thBlockedSig {
					blocked = append(blocked, th.blockedExpr.String())
				}
			}
			sort.Strings(blocked)
			r.shutdown()
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

// completeJoins resumes parents whose children have all finished.
func (r *reaction) completeJoins() {
	for _, th := range r.threads {
		if th.state != thWaitJoin {
			continue
		}
		pending := 0
		for _, c := range r.threads {
			if c.parent == th && c.state != thDone {
				pending++
			}
		}
		if pending == 0 {
			th.state = thReady
		}
	}
}

// resolveAbsent sets signals that no blocked or pending code can emit
// to absent. It returns false when nothing changed.
func (r *reaction) resolveAbsent() bool {
	potential := make(map[*kernel.Signal]bool)
	for _, th := range r.threads {
		switch th.state {
		case thBlockedSig:
			for s := range th.blockedCan {
				potential[s] = true
			}
		case thWaitJoin:
			for s := range th.joinCan {
				potential[s] = true
			}
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

// shutdown kills every live thread, so every carrier is freed.
func (r *reaction) shutdown() {
	r.killing = true
	for progress := true; progress; {
		progress = false
		for _, th := range r.threads {
			switch th.state {
			case thReady, thBlockedSig, thWaitJoin:
				th.stepOnce()
				progress = true
			}
		}
		r.completeJoins()
		// completeJoins may have made parents ready again; loop.
		for _, th := range r.threads {
			if th.state == thReady {
				progress = true
			}
		}
	}
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

// testSig evaluates a presence formula, blocking while it is
// undetermined. localCan describes what the thread could emit from the
// test point onward (both outcomes), so the Can analysis can decide
// which undetermined signals are truly unemittable.
func (th *thread) testSig(e kernel.SigExpr, localCan canInfo, k *cont) bool {
	for {
		switch th.r.evalSig(e) {
		case Present:
			return true
		case Absent:
			return false
		}
		// Blocked: register what we could still emit, then yield.
		can := union(nil, localCan.emits)
		if localCan.canTerm {
			can = th.r.m.foldChain(k, can)
		}
		if can == nil {
			can = map[*kernel.Signal]bool{}
		}
		th.blockedExpr = e
		th.blockedCan = can
		th.state = thBlockedSig
		th.yieldToScheduler()
	}
}

func (th *thread) exec(s kernel.Stmt, mode runMode, k *cont) (completion, error) {
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
			if th.testSig(s.Sig, canInfo{canTerm: true}, k) {
				return completion{kind: compTerminated}, nil
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
		for i := start; i < len(s.List); i++ {
			childMode := modeStart
			if mode == modeResume && i == start {
				childMode = modeResume
			}
			kk := &cont{items: s.List[i+1:], next: k}
			comp, err := th.exec(s.List[i], childMode, kk)
			if err != nil {
				return completion{}, err
			}
			switch comp.kind {
			case compPaused:
				r.next.set(s.ID(), i)
				return comp, nil
			case compExited:
				return comp, nil
			}
		}
		return completion{kind: compTerminated}, nil

	case *kernel.Loop:
		limit := r.m.LoopLimit
		if limit == 0 {
			limit = defaultLoopLimit
		}
		childMode := mode
		for iter := 0; ; iter++ {
			if iter > limit {
				return completion{}, fmt.Errorf("instantaneous loop detected (node %d)", s.ID())
			}
			kk := &cont{items: []kernel.Stmt{s}, next: k}
			comp, err := th.exec(s.Body, childMode, kk)
			if err != nil {
				return completion{}, err
			}
			switch comp.kind {
			case compPaused, compExited:
				return comp, nil
			}
			childMode = modeStart // loop back
		}

	case *kernel.Par:
		statuses := make([]int, len(s.Branches))
		if mode == modeResume {
			ent := cur.get(s.ID())
			if ent == nil {
				return completion{kind: compTerminated}, nil
			}
			copy(statuses, ent)
		} else {
			for i := range statuses {
				statuses[i] = 1 // running
			}
		}
		// Spawn a thread per running branch.
		children := make([]*thread, len(s.Branches))
		for i, b := range s.Branches {
			if statuses[i] != 1 {
				continue
			}
			ct := r.newThread(th)
			ct.body = b
			ct.mode = mode
			ct.k = nil
			children[i] = ct
			ct.launch()
		}
		// Wait for all children: register our continuation for Can.
		joinCan := r.m.foldChain(k, nil)
		if joinCan == nil {
			joinCan = map[*kernel.Signal]bool{}
		}
		th.joinCan = joinCan
		anyChild := false
		for _, c := range children {
			if c != nil {
				anyChild = true
			}
		}
		if anyChild {
			th.state = thWaitJoin
			th.yieldToScheduler()
		}
		// Collect completions.
		var exitComp *completion
		anyPaused := false
		for i, c := range children {
			if c == nil {
				continue
			}
			if c.err != nil {
				return completion{}, c.err
			}
			switch c.comp.kind {
			case compTerminated:
				statuses[i] = 2
			case compPaused:
				anyPaused = true
			case compExited:
				// The outermost targeted trap (smallest preorder ID) wins.
				if exitComp == nil || c.comp.trap.ID() < exitComp.trap.ID() {
					cc := c.comp
					exitComp = &cc
				}
			}
		}
		if exitComp != nil {
			r.next.clearSubtree(s)
			return *exitComp, nil
		}
		if !anyPaused {
			r.next.clear(s.ID())
			return completion{kind: compTerminated}, nil
		}
		r.next.set(s.ID(), statuses...)
		return completion{kind: compPaused}, nil

	case *kernel.Present:
		if mode == modeResume {
			ent := cur.get(s.ID())
			if ent == nil {
				return completion{kind: compTerminated}, nil
			}
			arm := s.Then
			if ent[0] == 2 {
				arm = s.Else
			}
			comp, err := th.exec(arm, modeResume, k)
			if err != nil {
				return completion{}, err
			}
			if comp.kind == compPaused {
				r.next.set(s.ID(), ent[0])
			}
			return comp, nil
		}
		taken := th.testSig(s.Sig, r.m.canStart(s), k)
		arm, armIdx := s.Then, 1
		if !taken {
			arm, armIdx = s.Else, 2
		}
		if arm == nil {
			return completion{kind: compTerminated}, nil
		}
		comp, err := th.exec(arm, modeStart, k)
		if err != nil {
			return completion{}, err
		}
		if comp.kind == compPaused {
			r.next.set(s.ID(), armIdx)
		}
		return comp, nil

	case *kernel.IfData:
		if mode == modeResume {
			ent := cur.get(s.ID())
			if ent == nil {
				return completion{kind: compTerminated}, nil
			}
			arm := s.Then
			if ent[0] == 2 {
				arm = s.Else
			}
			comp, err := th.exec(arm, modeResume, k)
			if err != nil {
				return completion{}, err
			}
			if comp.kind == compPaused {
				r.next.set(s.ID(), ent[0])
			}
			return comp, nil
		}
		val, err := r.m.hooks.EvalCond(s.Cond)
		if err != nil {
			return completion{}, err
		}
		arm, armIdx := s.Then, 1
		if !val {
			arm, armIdx = s.Else, 2
		}
		if arm == nil {
			return completion{kind: compTerminated}, nil
		}
		comp, err := th.exec(arm, modeStart, k)
		if err != nil {
			return completion{}, err
		}
		if comp.kind == compPaused {
			r.next.set(s.ID(), armIdx)
		}
		return comp, nil

	case *kernel.Trap:
		comp, err := th.exec(s.Body, mode, k)
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
		return th.execAbort(s, mode, k)

	case *kernel.Suspend:
		if mode == modeResume && cur.hasActiveWithin(s.Body) {
			if th.testSig(s.Sig, r.m.canResume(s), k) {
				// Frozen: carry the body's control state over unchanged.
				r.next.copySubtree(cur, s.Body)
				return completion{kind: compPaused}, nil
			}
			return th.exec(s.Body, modeResume, k)
		}
		return th.exec(s.Body, modeStart, k)

	case *kernel.Local:
		// A fresh scope each start; statuses are per-instant anyway.
		childMode := modeStart
		if mode == modeResume && cur.hasActiveWithin(s.Body) {
			childMode = modeResume
		}
		return th.exec(s.Body, childMode, k)
	}
	return completion{}, fmt.Errorf("internal: cannot execute %T", s)
}

func (th *thread) execAbort(s *kernel.Abort, mode runMode, k *cont) (completion, error) {
	r := th.r
	cur := r.m.state
	if mode == modeResume {
		ent := cur.get(s.ID())
		if ent == nil {
			return completion{kind: compTerminated}, nil
		}
		if ent[0] == 2 {
			// Resuming inside the handler.
			comp, err := th.exec(s.Handler, modeResume, k)
			if err != nil {
				return completion{}, err
			}
			if comp.kind == compPaused {
				r.next.set(s.ID(), 2)
			}
			return comp, nil
		}
		// Resuming inside the body: test the trigger first (delayed).
		trig := th.testSig(s.Sig, r.m.canResume(s), k)
		if trig && !s.Weak {
			// Strong abort: the body does not run this instant.
			return th.runHandler(s, k)
		}
		comp, err := th.exec(s.Body, modeResume, k)
		if err != nil {
			return completion{}, err
		}
		if trig && s.Weak {
			// Weak abort: the body ran its final instant. Normal
			// termination wins over the abort.
			switch comp.kind {
			case compTerminated, compExited:
				return comp, nil
			}
			r.next.clearSubtree(s.Body)
			return th.runHandler(s, k)
		}
		if comp.kind == compPaused {
			r.next.set(s.ID(), 1)
		}
		return comp, nil
	}
	// Start: no trigger test in the first instant.
	comp, err := th.exec(s.Body, modeStart, k)
	if err != nil {
		return completion{}, err
	}
	if comp.kind == compPaused {
		r.next.set(s.ID(), 1)
	}
	return comp, nil
}

func (th *thread) runHandler(s *kernel.Abort, k *cont) (completion, error) {
	if s.Handler == nil {
		return completion{kind: compTerminated}, nil
	}
	comp, err := th.exec(s.Handler, modeStart, k)
	if err != nil {
		return completion{}, err
	}
	if comp.kind == compPaused {
		th.r.next.set(s.ID(), 2)
	}
	return comp, nil
}

// DebugCan toggles quiescence-failure dumps (testing aid).
func DebugCan(on bool) { debugCan = on }
