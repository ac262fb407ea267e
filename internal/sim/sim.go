// Package sim builds and runs system-level implementations of an ECL
// design, reproducing the paper's synchronous/asynchronous trade-off:
//
//   - Sync: the whole top-level module compiled into a single EFSM and
//     run as one task under the RTOS (the "1 task" partitions of
//     Table 1);
//   - Async: each module instantiated by the top level compiled
//     separately and run as its own task, with signals delivered
//     through RTOS mailboxes (the "3 tasks" partitions).
//
// Both systems expose the same tick-level interface, report
// task-vs-kernel cycle counts through the cost model, and estimate
// their memory images, which is everything Table 1 needs. Ticks are
// slot-native: StepSlots drives the design's ports by index, each task
// maps its port slots to the kernel's wire ids, and a steady-state
// tick allocates nothing. Step is a by-name adapter over it.
package sim

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/cost"
	"repro/internal/cval"
	"repro/internal/efsm"
	"repro/internal/efsm/table"
	"repro/internal/kernel"
	"repro/internal/lower"
	"repro/internal/rtos"
	"repro/internal/sem"
	"repro/internal/source"
)

// Metrics aggregates what Table 1 reports for one implementation.
type Metrics struct {
	// TaskImage is the memory of the synthesized task code (the
	// "Task(s)" memory columns).
	TaskImage cost.Image
	// RTOSImage is the kernel's memory (the "RTOS" memory columns).
	RTOSImage cost.Image
	// TaskCycles and KernelCycles are the execution-time columns.
	TaskCycles   int64
	KernelCycles int64
	// Ticks counts environment instants driven so far.
	Ticks int64
	// States counts EFSM control states across all tasks.
	States int
	// Tasks is the partition size.
	Tasks int
}

// System is a runnable implementation of a design.
type System interface {
	// StepSlots drives one environment tick over slot-indexed I/O,
	// with the contract of exec.SlotStepper: slots follow Inputs(),
	// then Outputs(); present holds the input bits set by the caller,
	// and the system rewrites the output bits after them. in[i]
	// carries valued input i's value (invalid: presence only); inputs
	// are copied when they are delivered. When out[j] has storage of
	// an emitted value's size, the value's bytes are copied into it.
	// The caller may reuse all three vectors, and a steady-state tick
	// allocates nothing.
	StepSlots(present []bool, in, out []cval.Value) error
	// Step drives one tick by name: the named inputs are present (with
	// values for valued signals); the returned map holds fresh copies
	// of the design outputs emitted during the tick.
	Step(inputs map[string]cval.Value) (map[string]cval.Value, error)
	// Metrics returns the accumulated measurements.
	Metrics() Metrics
	// Inputs lists the design's environment-facing input signals in
	// slot order (sorted by name). Callers must not modify it.
	Inputs() []*kernel.Signal
	// Outputs lists the design's environment-facing output signals in
	// slot order (sorted by name). Callers must not modify it.
	Outputs() []*kernel.Signal
}

// Instance is one module instantiation of the top-level par.
type Instance struct {
	Module string
	// Args are the top-level signal names bound to the callee's
	// parameters, in parameter order.
	Args []string
}

// TopInstances extracts the instance list from a top-level module that
// consists of local signal declarations and a par of instantiations
// (the shape of the paper's Figure 4).
func TopInstances(info *sem.Info, top string) ([]Instance, error) {
	mi := info.Modules[top]
	if mi == nil {
		return nil, fmt.Errorf("module %q not found", top)
	}
	var insts []Instance
	var scan func(s ast.Stmt) error
	scan = func(s ast.Stmt) error {
		switch s := s.(type) {
		case *ast.Block:
			for _, st := range s.Stmts {
				if err := scan(st); err != nil {
					return err
				}
			}
		case *ast.SignalDecl, *ast.Empty, nil:
		case *ast.Par:
			for _, b := range s.Branches {
				if err := scan(b); err != nil {
					return err
				}
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.Call)
			if !ok || !info.IsInst[call] {
				return fmt.Errorf("top level contains a non-instantiation statement; cannot partition into tasks")
			}
			inst := Instance{Module: call.Fun.Name}
			for _, a := range call.Args {
				id, ok := a.(*ast.Ident)
				if !ok {
					return fmt.Errorf("instantiation argument is not a signal name")
				}
				inst.Args = append(inst.Args, id.Name)
			}
			insts = append(insts, inst)
		default:
			return fmt.Errorf("top level contains %T; cannot partition into tasks", s)
		}
		return nil
	}
	if err := scan(mi.Decl.Body); err != nil {
		return nil, err
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("top level instantiates no modules")
	}
	return insts, nil
}

// ---------------------------------------------------------------------------
// Task adapter

// tableRunner adapts a table-compiled EFSM to the RTOS task interface,
// translating between system wires and the module's port slots. The
// table machine's per-reaction cost is what the kernel prices.
type tableRunner struct {
	em *efsm.Machine
	m  *table.Machine
	// inWire and outWire give each input and output slot's wire id
	// (-1: unwired). Several slots may share one wire.
	inWire, outWire []int
	// Reused slot vectors (see table.Machine.Step).
	present []bool
	in, out []cval.Value
}

// newTableRunner compiles a task's EFSM into a fresh table program.
// Table 1 builds new machines for every run, so the program is not
// memoized (table.For would keep each run's design alive).
func newTableRunner(em *efsm.Machine) (*tableRunner, error) {
	prog, err := table.Compile(em)
	if err != nil {
		return nil, err
	}
	nIn, nOut := prog.NumInputs(), prog.NumOutputs()
	r := &tableRunner{
		em:      em,
		m:       table.New(prog),
		inWire:  make([]int, nIn),
		outWire: make([]int, nOut),
		present: make([]bool, nIn+nOut),
		in:      make([]cval.Value, nIn),
		out:     newValues(em.Outputs),
	}
	for i := range r.inWire {
		r.inWire[i] = -1
	}
	for j := range r.outWire {
		r.outWire[j] = -1
	}
	return r, nil
}

// newValues allocates one value per signal, with storage of its type
// for the valued ones; pure signals' entries stay invalid.
func newValues(sigs []*kernel.Signal) []cval.Value {
	vals := make([]cval.Value, len(sigs))
	for j, sig := range sigs {
		if !sig.Pure && sig.Type != nil {
			vals[j] = cval.New(sig.Type)
		}
	}
	return vals
}

// wire connects every port slot of the module's interface signal sig
// to wire w.
func (r *tableRunner) wire(sig *kernel.Signal, w int) {
	for i, in := range r.em.Inputs {
		if in == sig {
			r.inWire[i] = w
		}
	}
	for j, out := range r.em.Outputs {
		if out == sig {
			r.outWire[j] = w
		}
	}
}

// React implements rtos.Runner.
func (r *tableRunner) React(inbox, outbox *rtos.Mailbox) (rtos.Reaction, error) {
	for i, w := range r.inWire {
		r.in[i], r.present[i] = inbox.Get(w)
	}
	if _, err := r.m.Step(r.present, r.in, r.out); err != nil {
		return rtos.Reaction{}, err
	}
	units, depth := r.m.Cost()
	nIn := len(r.in)
	for j, w := range r.outWire {
		if w >= 0 && r.present[nIn+j] {
			outbox.Put(w, r.out[j])
		}
	}
	return rtos.Reaction{Depth: depth, Units: units}, nil
}

// ---------------------------------------------------------------------------
// Shared system plumbing

type system struct {
	kern *rtos.Kernel
	// ins and outs are the design's environment-facing signals sorted
	// by name, which is the slot order; inWire and outWire are their
	// wire ids.
	ins, outs       []*kernel.Signal
	inWire, outWire []int
	// trig lists the per-tick trigger wires of tasks that re-ready
	// every tick (modules with empty-await delta cycles; paper
	// footnote 3: "a feature forcing the rescheduling of the module
	// must be used").
	trig []int
	// The map Step's reused slot vectors.
	present []bool
	in, out []cval.Value

	taskImage cost.Image
	rtosImage cost.Image
	states    int
	ticks     int64
}

// StepSlots implements System.
func (s *system) StepSlots(present []bool, in, out []cval.Value) error {
	nIn, nOut := len(s.inWire), len(s.outWire)
	if len(present) < nIn+nOut || len(in) < nIn || len(out) < nOut {
		return fmt.Errorf("sim: slot vectors too short (need %d presence, %d in, %d out)", nIn+nOut, nIn, nOut)
	}
	s.ticks++
	s.kern.Tick()
	for i, w := range s.inWire {
		if present[i] {
			s.kern.Post(w, in[i])
		}
	}
	for _, w := range s.trig {
		s.kern.Post(w, cval.Value{})
	}
	emitted, err := s.kern.RunToIdle()
	if err != nil {
		return err
	}
	for j, w := range s.outWire {
		v, ok := emitted.Get(w)
		present[nIn+j] = ok
		if b := out[j].B; ok && v.IsValid() && len(b) == len(v.B) {
			copy(b, v.B)
		}
	}
	return nil
}

// Step implements System as an adapter over StepSlots.
func (s *system) Step(inputs map[string]cval.Value) (map[string]cval.Value, error) {
	nIn := len(s.ins)
	for i := range s.in {
		s.present[i], s.in[i] = false, cval.Value{}
	}
	for name, val := range inputs {
		i, ok := s.inputSlot(name)
		if !ok {
			return nil, s.unknownInput(inputs)
		}
		s.present[i], s.in[i] = true, val
	}
	if err := s.StepSlots(s.present, s.in, s.out); err != nil {
		return nil, err
	}
	out := make(map[string]cval.Value)
	for j, sig := range s.outs {
		if !s.present[nIn+j] {
			continue
		}
		if v := s.out[j]; v.IsValid() {
			out[sig.Name] = v.Clone()
		} else {
			out[sig.Name] = cval.Value{}
		}
	}
	return out, nil
}

// inputSlot resolves a design input by name.
func (s *system) inputSlot(name string) (int, bool) {
	i := sort.Search(len(s.ins), func(i int) bool { return s.ins[i].Name >= name })
	return i, i < len(s.ins) && s.ins[i].Name == name
}

// unknownInput reports the first name of inputs, in sorted order, that
// is not a design input.
func (s *system) unknownInput(inputs map[string]cval.Value) error {
	for _, name := range slices.Sorted(maps.Keys(inputs)) {
		if _, ok := s.inputSlot(name); !ok {
			return fmt.Errorf("no input signal %q", name)
		}
	}
	return nil
}

// selfTrigger re-readies t on every tick through a virtual trigger
// wire.
func (s *system) selfTrigger(t *rtos.Task) {
	sig := &kernel.Signal{Name: "tick." + t.Name, Class: kernel.Input, Pure: true}
	s.trig = append(s.trig, s.kern.AddTaskInput(t, sig))
}

// setPorts puts the design's inputs and outputs into slot order,
// resolves their wires and allocates the map Step's slot vectors.
func (s *system) setPorts(ins, outs []*kernel.Signal) {
	byName := func(a, b *kernel.Signal) int { return strings.Compare(a.Name, b.Name) }
	slices.SortFunc(ins, byName)
	slices.SortFunc(outs, byName)
	s.ins, s.outs = ins, outs
	s.inWire, s.outWire = s.wiresOf(ins), s.wiresOf(outs)
	s.present = make([]bool, len(ins)+len(outs))
	s.in, s.out = make([]cval.Value, len(ins)), newValues(outs)
}

func (s *system) wiresOf(sigs []*kernel.Signal) []int {
	ws := make([]int, len(sigs))
	for i, sig := range sigs {
		ws[i] = s.kern.Wire(sig)
	}
	return ws
}

// boot runs every task's initialization reaction (kernel startup),
// delivering boot emissions, then zeroes the counters so measurements
// cover steady state.
func (s *system) boot() error {
	s.kern.ReadyAll()
	if _, err := s.kern.RunToIdle(); err != nil {
		return err
	}
	s.kern.ResetCounters()
	return nil
}

// Inputs implements System.
func (s *system) Inputs() []*kernel.Signal { return s.ins }

// Outputs implements System.
func (s *system) Outputs() []*kernel.Signal { return s.outs }

// Metrics implements System.
func (s *system) Metrics() Metrics {
	return Metrics{
		TaskImage:    s.taskImage,
		RTOSImage:    s.rtosImage,
		TaskCycles:   s.kern.TaskCycles,
		KernelCycles: s.kern.KernelCycles,
		Ticks:        s.ticks,
		States:       s.states,
		Tasks:        len(s.kern.Tasks()),
	}
}

// hasDeltaPause reports whether a module pauses on empty await()
// (kernel.Pause), requiring per-tick rescheduling.
func hasDeltaPause(mod *kernel.Module) bool {
	found := false
	kernel.Walk(mod.Body, func(n kernel.Stmt) {
		if _, ok := n.(*kernel.Pause); ok {
			found = true
		}
	})
	return found
}

// ---------------------------------------------------------------------------
// Builders

// Config selects the build parameters shared by both systems.
type Config struct {
	Policy lower.Policy
	Model  *cost.Model
	// Compile bounds (zero values use compile defaults).
	Options compile.Options
}

func (c *Config) model() *cost.Model {
	if c.Model == nil {
		return cost.Default()
	}
	return c.Model
}

// BuildSync compiles the whole top-level module into one EFSM and runs
// it as a single task under the RTOS.
func BuildSync(info *sem.Info, top string, cfg Config) (System, error) {
	var diags source.DiagList
	res, err := lower.Lower(info, top, cfg.Policy, &diags)
	if err != nil {
		return nil, err
	}
	em, err := compile.CompileWith(res, cfg.Options)
	if err != nil {
		return nil, err
	}
	model := cfg.model()
	s := &system{kern: rtos.New(model)}
	runner, err := newTableRunner(em)
	if err != nil {
		return nil, err
	}
	// The single task uses the module's own signals as wires.
	ins, outs := slices.Clone(res.Module.Inputs), slices.Clone(res.Module.Outputs)
	for _, sig := range slices.Concat(ins, outs) {
		runner.wire(sig, s.kern.Wire(sig))
	}
	task := &rtos.Task{Name: top, Prio: 0, Inputs: slices.Clone(ins), Run: runner}
	s.kern.AddTask(task)
	// A synchronous implementation reacts on every clock tick.
	s.selfTrigger(task)
	s.setPorts(ins, outs)

	s.taskImage = model.SoftwareImage(em)
	s.taskImage.DataBytes += model.TaskDataBytes()
	ch, vch := cost.ChannelsOf(res.Module)
	s.rtosImage = model.RTOSImage(1, ch, vch)
	s.states = len(em.States)
	if err := s.boot(); err != nil {
		return nil, err
	}
	return s, nil
}

// BuildAsync compiles each top-level instance separately and runs them
// as independent tasks connected by RTOS mailboxes.
func BuildAsync(info *sem.Info, top string, cfg Config) (System, error) {
	insts, err := TopInstances(info, top)
	if err != nil {
		return nil, err
	}
	topMi := info.Modules[top]
	model := cfg.model()
	s := &system{kern: rtos.New(model)}
	// System wires: the top-level interface plus its local signals.
	wires := map[string]*kernel.Signal{}
	var ins, outs []*kernel.Signal
	for _, p := range topMi.Params {
		wire := &kernel.Signal{Name: p.Name, Pure: p.Pure, Type: p.ValueType}
		if p.Dir == ast.In {
			wire.Class = kernel.Input
			ins = append(ins, wire)
		} else {
			wire.Class = kernel.Output
			outs = append(outs, wire)
		}
		wires[p.Name] = wire
	}
	for _, l := range topMi.Locals {
		wire := &kernel.Signal{Name: l.Name, Class: kernel.LocalSig, Pure: l.Pure, Type: l.ValueType}
		wires[l.Name] = wire
	}

	totalChannels, totalValued := 0, 0
	for _, w := range wires {
		totalChannels++
		if !w.Pure && w.Type != nil {
			totalValued++
		}
	}

	for prio, inst := range insts {
		var diags source.DiagList
		res, err := lower.Lower(info, inst.Module, cfg.Policy, &diags)
		if err != nil {
			return nil, fmt.Errorf("instance %s: %w", inst.Module, err)
		}
		em, err := compile.CompileWith(res, cfg.Options)
		if err != nil {
			return nil, fmt.Errorf("instance %s: %w", inst.Module, err)
		}
		runner, err := newTableRunner(em)
		if err != nil {
			return nil, fmt.Errorf("instance %s: %w", inst.Module, err)
		}
		task := &rtos.Task{Name: fmt.Sprintf("%s%d", inst.Module, prio+1), Prio: prio, Run: runner}
		callee := info.Modules[inst.Module]
		for i, p := range callee.Params {
			wire := wires[inst.Args[i]]
			if wire == nil {
				return nil, fmt.Errorf("instance %s: unknown signal %q", inst.Module, inst.Args[i])
			}
			var local *kernel.Signal
			for _, sig := range res.Module.Signals() {
				if sig.Name == p.Name {
					local = sig
					break
				}
			}
			if local == nil {
				return nil, fmt.Errorf("instance %s: interface signal %q missing after lowering", inst.Module, p.Name)
			}
			runner.wire(local, s.kern.Wire(wire))
			if p.Dir == ast.In {
				task.Inputs = append(task.Inputs, wire)
			}
		}
		s.kern.AddTask(task)
		if hasDeltaPause(res.Module) {
			s.selfTrigger(task)
		}
		img := model.SoftwareImage(em)
		img.DataBytes += model.TaskDataBytes()
		s.taskImage.Add(img)
		s.states += len(em.States)
	}
	s.setPorts(ins, outs)
	s.rtosImage = model.RTOSImage(len(insts), totalChannels, totalValued)
	if err := s.boot(); err != nil {
		return nil, err
	}
	return s, nil
}
