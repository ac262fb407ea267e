// Package rtos simulates the small real-time kernel the paper's
// asynchronous partitions run under: static priority tasks with
// run-to-completion reactions, signal delivery through event
// mailboxes, and cycle accounting that separates task work from
// kernel overhead (the two execution-time columns of Table 1).
//
// Every signal the kernel delivers or collects gets a dense wire id
// when the system is built (AddTask, AddTaskInput, Wire). A mailbox is
// a presence bit and a latched value per wire, with value storage the
// mailbox owns and reuses, so a steady-state tick moves signals
// without allocating.
package rtos

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/cval"
	"repro/internal/kernel"
)

// Reaction is the cost of one task activation: the decision-tree
// nodes visited and the data work units spent.
type Reaction struct {
	Depth int
	Units int
}

// Runner is the body of a task: one synchronous reaction over the
// latched mailbox in, putting its emissions into out.
type Runner interface {
	React(in, out *Mailbox) (Reaction, error)
}

// Mailbox holds one delivery per wire: a presence bit and, for a
// valued delivery, a copy of the value in storage the mailbox owns.
type Mailbox struct {
	// state per wire: 0 absent, 1 present without a value, 2 present
	// with vals[w] latched.
	state []uint8
	vals  []cval.Value
	// set lists the present wires in delivery order.
	set []int
}

// Put delivers wire w, latching a copy of v when it is valid. A
// re-delivery replaces the previous one and reuses its storage.
func (m *Mailbox) Put(w int, v cval.Value) {
	if w >= len(m.state) {
		m.state = append(m.state, make([]uint8, w+1-len(m.state))...)
		m.vals = append(m.vals, make([]cval.Value, w+1-len(m.vals))...)
	}
	if m.state[w] == 0 {
		m.set = append(m.set, w)
	}
	if !v.IsValid() {
		m.state[w] = 1
		return
	}
	m.state[w] = 2
	if len(m.vals[w].B) != len(v.B) {
		m.vals[w] = v.Clone()
		return
	}
	m.vals[w].Type = v.Type
	copy(m.vals[w].B, v.B)
}

// Get reports whether wire w is present and its latched value (invalid
// for a delivery without one). The value is a view of the mailbox's
// storage, valid until the next Put of w or Clear.
func (m *Mailbox) Get(w int) (cval.Value, bool) {
	if w < 0 || w >= len(m.state) || m.state[w] == 0 {
		return cval.Value{}, false
	}
	if m.state[w] == 1 {
		return cval.Value{}, true
	}
	return m.vals[w], true
}

// Clear empties the mailbox, keeping its value storage.
func (m *Mailbox) Clear() {
	for _, w := range m.set {
		m.state[w] = 0
	}
	m.set = m.set[:0]
}

// Task is one schedulable activity.
type Task struct {
	Name string
	// Prio is the static priority; lower value runs first.
	Prio int
	// Inputs lists the signals that activate the task.
	Inputs []*kernel.Signal
	Run    Runner

	// inbox receives posts; latched is the spare the dispatcher swaps
	// in, holding the inputs of the reaction in progress.
	inbox, latched Mailbox
	ready          bool
}

// Kernel is the simulated RTOS instance.
type Kernel struct {
	Model *cost.Model

	tasks []*Task
	// wires assigns dense ids at build time; subscribers[w] lists the
	// tasks latching wire w.
	wires       map[*kernel.Signal]int
	names       []string
	subscribers [][]*Task
	// out collects one reaction's emissions; emitted those of a whole
	// RunToIdle.
	out, emitted Mailbox

	// TaskCycles accumulates cycles spent in task code.
	TaskCycles int64
	// KernelCycles accumulates cycles spent in the kernel.
	KernelCycles int64
	// Switches counts context switches.
	Switches int64
	// Activations counts task activations.
	Activations int64

	// Trace, when non-nil, receives scheduler events.
	Trace func(format string, args ...interface{})
}

// New creates a kernel with the given cost model.
func New(model *cost.Model) *Kernel {
	return &Kernel{Model: model, wires: make(map[*kernel.Signal]int)}
}

// Wire returns sig's wire id, assigning the next one on first use.
func (k *Kernel) Wire(sig *kernel.Signal) int {
	if w, ok := k.wires[sig]; ok {
		return w
	}
	w := len(k.names)
	k.wires[sig] = w
	k.names = append(k.names, sig.Name)
	k.subscribers = append(k.subscribers, nil)
	return w
}

// AddTask registers a task; its Inputs subscribe it to those signals.
func (k *Kernel) AddTask(t *Task) {
	k.tasks = append(k.tasks, t)
	for _, sig := range t.Inputs {
		w := k.Wire(sig)
		k.subscribers[w] = append(k.subscribers[w], t)
	}
}

// Tasks returns the registered tasks.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// AddTaskInput subscribes an already registered task to one more
// signal (used for per-tick trigger wires) and returns its wire id.
func (k *Kernel) AddTaskInput(t *Task, sig *kernel.Signal) int {
	t.Inputs = append(t.Inputs, sig)
	w := k.Wire(sig)
	k.subscribers[w] = append(k.subscribers[w], t)
	return w
}

// Post delivers an occurrence of wire w to every subscriber, latching
// a copy of val, and charges the kernel for each delivery. It is used
// both by the environment and by tasks' emissions.
func (k *Kernel) Post(w int, val cval.Value) {
	for _, t := range k.subscribers[w] {
		k.KernelCycles += int64(k.Model.EventPost)
		t.inbox.Put(w, val)
		t.ready = true
		if k.Trace != nil {
			k.Trace("post %s -> %s", k.names[w], t.Name)
		}
	}
}

// RunToIdle dispatches ready tasks (highest priority first, FIFO among
// equals) until none remain, charging scheduler, context-switch, and
// dispatch overhead. Emissions during a reaction post to subscribers
// and may ready further tasks. It returns the wires emitted, with last
// values; the mailbox is the kernel's and stays valid until the next
// call.
func (k *Kernel) RunToIdle() (*Mailbox, error) {
	k.emitted.Clear()
	for {
		k.KernelCycles += int64(k.Model.SchedulerPass)
		var next *Task
		for _, t := range k.tasks {
			if !t.ready {
				continue
			}
			if next == nil || t.Prio < next.Prio {
				next = t
			}
		}
		if next == nil {
			return &k.emitted, nil
		}
		next.ready = false
		next.inbox, next.latched = next.latched, next.inbox
		in := &next.latched

		k.KernelCycles += int64(k.Model.ContextSwitch + k.Model.TaskDispatch)
		k.Switches++
		k.Activations++
		if k.Trace != nil {
			k.Trace("dispatch %s (%d inputs)", next.Name, len(in.set))
		}
		k.out.Clear()
		r, err := next.Run.React(in, &k.out)
		in.Clear()
		if err != nil {
			return &k.emitted, fmt.Errorf("task %s: %w", next.Name, err)
		}
		k.TaskCycles += int64(k.Model.ReactionCycles(r.Depth, r.Units))
		for _, w := range k.out.set {
			val, _ := k.out.Get(w)
			k.emitted.Put(w, val)
			k.Post(w, val)
		}
	}
}

// Tick charges the kernel's per-tick housekeeping (timer interrupt).
func (k *Kernel) Tick() {
	k.KernelCycles += int64(k.Model.IdleTick)
}

// ReadyAll marks every task ready, as the kernel does at startup so
// each task runs its initialization (boot) reaction.
func (k *Kernel) ReadyAll() {
	for _, t := range k.tasks {
		t.ready = true
	}
}

// ResetCounters zeroes the cycle accounting (used after boot so the
// measurements cover steady state only).
func (k *Kernel) ResetCounters() {
	k.TaskCycles, k.KernelCycles, k.Switches, k.Activations = 0, 0, 0, 0
}
