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
// Both systems expose the same tick-level Step interface, report
// task-vs-kernel cycle counts through the cost model, and estimate
// their memory images, which is everything Table 1 needs.
package sim

import (
	"fmt"
	"sort"

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
	// Step drives one environment tick: the named inputs are present
	// (with values for valued signals); the returned map holds the
	// design outputs emitted during the tick.
	Step(inputs map[string]cval.Value) (map[string]cval.Value, error)
	// Metrics returns the accumulated measurements.
	Metrics() Metrics
	// Inputs lists the design's environment-facing input signals.
	Inputs() []*kernel.Signal
	// Outputs lists the design's environment-facing output signals.
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
// translating between system-level wire signals and the module's port
// slots. The table machine's per-reaction cost is what the kernel
// prices.
type tableRunner struct {
	em *efsm.Machine
	m  *table.Machine
	// wireToIn maps system wires to the module's input slots.
	wireToIn map[*kernel.Signal]int
	// outWire maps each output slot to its system wire (nil: unwired).
	outWire []*kernel.Signal
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
	out := make([]cval.Value, nOut)
	for j, sig := range em.Outputs {
		if !sig.Pure && sig.Type != nil {
			out[j] = cval.New(sig.Type)
		}
	}
	return &tableRunner{
		em:       em,
		m:        table.New(prog),
		wireToIn: map[*kernel.Signal]int{},
		outWire:  make([]*kernel.Signal, nOut),
		present:  make([]bool, nIn+nOut),
		in:       make([]cval.Value, nIn),
		out:      out,
	}, nil
}

// wire connects the module's interface signal sig to a system wire.
func (r *tableRunner) wire(sig, wire *kernel.Signal) {
	for i, in := range r.em.Inputs {
		if in == sig {
			r.wireToIn[wire] = i
		}
	}
	for j, out := range r.em.Outputs {
		if out == sig {
			r.outWire[j] = wire
		}
	}
}

// React implements rtos.Runner.
func (r *tableRunner) React(inputs map[*kernel.Signal]cval.Value) (*rtos.Reaction, error) {
	for i := range r.in {
		r.present[i], r.in[i] = false, cval.Value{}
	}
	for wire, val := range inputs {
		if i, ok := r.wireToIn[wire]; ok {
			r.present[i], r.in[i] = true, val
		}
	}
	if _, err := r.m.Step(r.present, r.in, r.out); err != nil {
		return nil, err
	}
	units, depth := r.m.Cost()
	res := &rtos.Reaction{
		Emitted: make(map[*kernel.Signal]cval.Value),
		Depth:   depth,
		Units:   units,
	}
	nIn := len(r.in)
	for j, wire := range r.outWire {
		if wire == nil || !r.present[nIn+j] {
			continue
		}
		if v := r.out[j]; v.IsValid() {
			res.Emitted[wire] = v.Clone()
		} else {
			res.Emitted[wire] = cval.Value{}
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Shared system plumbing

type system struct {
	model  *cost.Model
	kern   *rtos.Kernel
	wires  map[string]*kernel.Signal // system signals by name
	inputs map[string]*kernel.Signal // design inputs by name
	outs   map[*kernel.Signal]string // design outputs
	// selfTrig tasks re-ready every tick (modules with empty-await
	// delta cycles; paper footnote 3: "a feature forcing the
	// rescheduling of the module must be used").
	selfTrig []*rtos.Task
	triggers map[*rtos.Task]*kernel.Signal

	taskImage cost.Image
	rtosImage cost.Image
	states    int
	ticks     int64
}

// Step implements System.
func (s *system) Step(inputs map[string]cval.Value) (map[string]cval.Value, error) {
	s.ticks++
	s.kern.Tick()
	for name, val := range inputs {
		wire := s.inputs[name]
		if wire == nil {
			return nil, fmt.Errorf("no input signal %q", name)
		}
		s.kern.Post(wire, val)
	}
	for _, t := range s.selfTrig {
		s.kern.Post(s.selfTriggerSignalFor(t), cval.Value{})
	}
	emitted, err := s.kern.RunToIdle()
	if err != nil {
		return nil, err
	}
	out := make(map[string]cval.Value)
	for sig, val := range emitted {
		if name, ok := s.outs[sig]; ok {
			out[name] = val
		}
	}
	return out, nil
}

// selfTriggerSignalFor returns the task's virtual per-tick trigger
// wire, creating it on first use.
func (s *system) selfTriggerSignalFor(t *rtos.Task) *kernel.Signal {
	if s.triggers == nil {
		s.triggers = map[*rtos.Task]*kernel.Signal{}
	}
	if sig, ok := s.triggers[t]; ok {
		return sig
	}
	sig := &kernel.Signal{Name: "tick." + t.Name, Class: kernel.Input, Pure: true}
	s.triggers[t] = sig
	return sig
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
func (s *system) Inputs() []*kernel.Signal {
	out := make([]*kernel.Signal, 0, len(s.inputs))
	for _, sig := range s.inputs {
		out = append(out, sig)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Outputs implements System.
func (s *system) Outputs() []*kernel.Signal {
	out := make([]*kernel.Signal, 0, len(s.outs))
	for sig := range s.outs {
		out = append(out, sig)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

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
	s := &system{
		model:  model,
		kern:   rtos.New(model),
		wires:  map[string]*kernel.Signal{},
		inputs: map[string]*kernel.Signal{},
		outs:   map[*kernel.Signal]string{},
	}
	runner, err := newTableRunner(em)
	if err != nil {
		return nil, err
	}
	task := &rtos.Task{Name: top, Prio: 0, Run: runner}
	for _, in := range res.Module.Inputs {
		// The single task uses the module's own signals as wires.
		s.wires[in.Name] = in
		s.inputs[in.Name] = in
		runner.wire(in, in)
		task.Inputs = append(task.Inputs, in)
	}
	for _, out := range res.Module.Outputs {
		s.wires[out.Name] = out
		s.outs[out] = out.Name
		runner.wire(out, out)
	}
	s.kern.AddTask(task)
	// A synchronous implementation reacts on every clock tick.
	s.kern.AddTaskInput(task, s.selfTriggerSignalFor(task))
	s.selfTrig = append(s.selfTrig, task)

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
	s := &system{
		model:  model,
		kern:   rtos.New(model),
		wires:  map[string]*kernel.Signal{},
		inputs: map[string]*kernel.Signal{},
		outs:   map[*kernel.Signal]string{},
	}
	// System wires: the top-level interface plus its local signals.
	for _, p := range topMi.Params {
		wire := &kernel.Signal{Name: p.Name, Pure: p.Pure, Type: p.ValueType}
		if p.Dir == ast.In {
			wire.Class = kernel.Input
			s.inputs[p.Name] = wire
		} else {
			wire.Class = kernel.Output
			s.outs[wire] = p.Name
		}
		s.wires[p.Name] = wire
	}
	for _, l := range topMi.Locals {
		wire := &kernel.Signal{Name: l.Name, Class: kernel.LocalSig, Pure: l.Pure, Type: l.ValueType}
		s.wires[l.Name] = wire
	}

	totalChannels, totalValued := 0, 0
	for _, w := range s.wires {
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
			wire := s.wires[inst.Args[i]]
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
			runner.wire(local, wire)
			if p.Dir == ast.In {
				task.Inputs = append(task.Inputs, wire)
			}
		}
		s.kern.AddTask(task)
		if hasDeltaPause(res.Module) {
			s.kern.AddTaskInput(task, s.selfTriggerSignalFor(task))
			s.selfTrig = append(s.selfTrig, task)
		}
		img := model.SoftwareImage(em)
		img.DataBytes += model.TaskDataBytes()
		s.taskImage.Add(img)
		s.states += len(em.States)
	}
	s.rtosImage = model.RTOSImage(len(insts), totalChannels, totalValued)
	if err := s.boot(); err != nil {
		return nil, err
	}
	return s, nil
}
