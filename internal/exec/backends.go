package exec

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/cval"
	"repro/internal/efsm"
	"repro/internal/efsm/table"
	"repro/internal/interp"
	"repro/internal/sem"
	"repro/internal/sim"
	"repro/internal/source"
)

// The built-in backends. interp is the semantic oracle; efsm is the
// production software implementation, the compiled EFSM; efsm-min
// runs the bisimulation-minimized automaton; efsm-table is efsm-min
// under the name the slot-indexed hot path was introduced with (all
// three run the table VM of internal/efsm/table); sim runs the design
// as a single task under the simulated RTOS (tick-level, not
// instant-conformant: it boots tasks before the first Step and cannot
// snapshot).
func init() {
	Register(Backend{
		Name:        "interp",
		Description: "reference interpreter (Esterel logical semantics, constructive causality)",
		Conformant:  true,
		Open: func(d *core.Design) (Machine, error) {
			mod := d.Lowered.Module
			return &interpMachine{
				tbl: newSigTable(mod.Inputs, mod.Outputs),
				d:   d,
				// The lowered Info, not the program's: lowering registers
				// synthesized nodes (decl initializers, inlined args) in a
				// derived view that the base Info never sees.
				m: interp.NewMachine(mod, d.Lowered.Info),
			}, nil
		},
	})
	Register(Backend{
		Name:        "efsm",
		Description: "compiled EFSM software implementation",
		Conformant:  true,
		Open: func(d *core.Design) (Machine, error) {
			return openTable("efsm", d.Machine)
		},
	})
	Register(Backend{
		Name:        "efsm-min",
		Description: "compiled EFSM after bisimulation minimization",
		Conformant:  true,
		Open: func(d *core.Design) (Machine, error) {
			return openTable("efsm-min", minimized(d))
		},
	})
	Register(Backend{
		Name:        "efsm-table",
		Description: "table-compiled EFSM: flat bytecode over a preallocated arena, slot-indexed I/O",
		Conformant:  true,
		Open: func(d *core.Design) (Machine, error) {
			return openTable("efsm-table", minimized(d))
		},
	})
	Register(Backend{
		Name:        "sim",
		Description: "single-task system simulation under the RTOS (tick-level; no snapshots)",
		Conformant:  false,
		Open:        openSim,
	})
}

// ---------------------------------------------------------------------------
// interp backend

type interpMachine struct {
	tbl *sigTable
	d   *core.Design
	m   *interp.Machine
}

func (im *interpMachine) Backend() string   { return "interp" }
func (im *interpMachine) Module() string    { return im.d.Lowered.Module.Name }
func (im *interpMachine) Inputs() []Signal  { return im.tbl.inputs }
func (im *interpMachine) Outputs() []Signal { return im.tbl.outputs }
func (im *interpMachine) Terminated() bool  { return im.m.Terminated() }

func (im *interpMachine) Step(inputs map[string]cval.Value) (*Result, error) {
	in, err := im.tbl.resolve(inputs)
	if err != nil {
		return nil, err
	}
	r, err := im.m.React(in)
	if err != nil {
		return nil, err
	}
	return &Result{Outputs: nameOutputs(r.Outputs), Terminated: r.Terminated}, nil
}

func (im *interpMachine) Reset() error {
	im.m.Reset()
	return nil
}

func (im *interpMachine) Snapshot() (Snapshot, error) { return im.m.Snapshot(), nil }

func (im *interpMachine) encodeSnapshot(s Snapshot) (*SnapshotBlob, error) {
	snap, ok := s.(*interp.Snapshot)
	if !ok {
		return nil, fmt.Errorf("exec: interp: cannot encode %T", s)
	}
	p := snap.Portable()
	return &SnapshotBlob{
		State: p.State, Started: p.Started, Done: p.Done,
		Vars: encodeByteMap(p.Vars), Sigs: encodeByteMap(p.Sigs),
	}, nil
}

func (im *interpMachine) decodeSnapshot(b *SnapshotBlob) (Snapshot, error) {
	vars, err := decodeByteMap(b.Vars)
	if err != nil {
		return nil, fmt.Errorf("exec: interp: snapshot blob: %w", err)
	}
	sigs, err := decodeByteMap(b.Sigs)
	if err != nil {
		return nil, fmt.Errorf("exec: interp: snapshot blob: %w", err)
	}
	return im.m.SnapshotFromPortable(&interp.PortableSnapshot{
		State: b.State, Started: b.Started, Done: b.Done, Vars: vars, Sigs: sigs,
	})
}

func (im *interpMachine) Restore(s Snapshot) error {
	snap, ok := s.(*interp.Snapshot)
	if !ok {
		return fmt.Errorf("exec: interp: cannot restore %T", s)
	}
	if err := im.m.Restore(snap); err != nil {
		return fmt.Errorf("exec: interp: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// compiled-EFSM backends

// tableMachine runs the table-compiled form of an EFSM under the
// backend name it was opened with. It is the exec hot path's native
// citizen: StepSlots is the real stepping interface (zero allocations
// in steady state), and the map Step is a thin adapter over it.
type tableMachine struct {
	name    string
	m       *table.Machine
	ports   *Ports
	adapter *SlotAdapter
}

func openTable(name string, em *efsm.Machine) (Machine, error) {
	prog, err := table.For(em)
	if err != nil {
		return nil, fmt.Errorf("exec: %s: %w", name, err)
	}
	ports := newPortsFromKernel(em.Inputs, em.Outputs)
	return &tableMachine{
		name:    name,
		m:       table.New(prog),
		ports:   ports,
		adapter: NewSlotAdapter(ports),
	}, nil
}

func (tm *tableMachine) Backend() string   { return tm.name }
func (tm *tableMachine) Module() string    { return tm.m.Program().Name() }
func (tm *tableMachine) Inputs() []Signal  { return tm.ports.Inputs() }
func (tm *tableMachine) Outputs() []Signal { return tm.ports.Outputs() }
func (tm *tableMachine) Terminated() bool  { return tm.m.Terminated() }

func (tm *tableMachine) Ports() *Ports { return tm.ports }

func (tm *tableMachine) StepSlots(present []bool, in, out []cval.Value) (bool, error) {
	return tm.m.Step(present, in, out)
}

func (tm *tableMachine) Step(inputs map[string]cval.Value) (*Result, error) {
	return tm.adapter.Step(tm.m.Step, inputs)
}

func (tm *tableMachine) Reset() error {
	tm.m.Reset()
	return nil
}

func (tm *tableMachine) Snapshot() (Snapshot, error) { return tm.m.Snapshot(), nil }

func (tm *tableMachine) encodeSnapshot(s Snapshot) (*SnapshotBlob, error) {
	snap, ok := s.(*table.Snapshot)
	if !ok {
		return nil, fmt.Errorf("exec: %s: cannot encode %T", tm.name, s)
	}
	p := snap.Portable()
	return &SnapshotBlob{
		State: strconv.Itoa(p.StateID), Done: p.Done,
		Vars: encodeByteMap(p.Vars), Sigs: encodeByteMap(p.Sigs),
	}, nil
}

func (tm *tableMachine) decodeSnapshot(b *SnapshotBlob) (Snapshot, error) {
	stateID, err := strconv.Atoi(b.State)
	if err != nil {
		return nil, fmt.Errorf("exec: %s: snapshot blob: bad state %q", tm.name, b.State)
	}
	vars, err := decodeByteMap(b.Vars)
	if err != nil {
		return nil, fmt.Errorf("exec: %s: snapshot blob: %w", tm.name, err)
	}
	sigs, err := decodeByteMap(b.Sigs)
	if err != nil {
		return nil, fmt.Errorf("exec: %s: snapshot blob: %w", tm.name, err)
	}
	return tm.m.SnapshotFromPortable(&table.PortableSnapshot{
		StateID: stateID, Done: b.Done, Vars: vars, Sigs: sigs,
	})
}

func (tm *tableMachine) Restore(s Snapshot) error {
	snap, ok := s.(*table.Snapshot)
	if !ok {
		return fmt.Errorf("exec: %s: cannot restore %T", tm.name, s)
	}
	if err := tm.m.Restore(snap); err != nil {
		return fmt.Errorf("exec: %s: %w", tm.name, err)
	}
	return nil
}

// minCache memoizes bisimulation minimization per compiled machine so
// reopening the efsm-min backend (sessions fork a lot) stays cheap.
var minCache sync.Map // *efsm.Machine -> *efsm.Machine

func minimized(d *core.Design) *efsm.Machine {
	if m, ok := minCache.Load(d.Machine); ok {
		return m.(*efsm.Machine)
	}
	min, _ := efsm.Minimize(d.Machine)
	actual, _ := minCache.LoadOrStore(d.Machine, min)
	return actual.(*efsm.Machine)
}

// ---------------------------------------------------------------------------
// sim backend

// simMachine runs the design as a single-task RTOS system. It is a
// SlotStepper: the system's ports, sorted by name, are its slots, and
// the map Step is the shared SlotAdapter.
type simMachine struct {
	d       *core.Design
	sys     sim.System
	ports   *Ports
	adapter *SlotAdapter
}

func openSim(d *core.Design) (Machine, error) {
	sys, err := buildSim(d)
	if err != nil {
		return nil, err
	}
	ports := newPortsFromKernel(sys.Inputs(), sys.Outputs())
	return &simMachine{d: d, sys: sys, ports: ports, adapter: NewSlotAdapter(ports)}, nil
}

// buildSim builds a fresh single-task RTOS system over the design's
// module. The design's own analysis tables were consumed by its
// lowering, so the system is built from a fresh semantic analysis of
// the same parsed file.
func buildSim(d *core.Design) (sim.System, error) {
	var diags source.DiagList
	info := sem.Analyze(d.Program.File, &diags)
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	sys, err := sim.BuildSync(info, d.Lowered.Module.Name, sim.Config{})
	if err != nil {
		return nil, fmt.Errorf("exec: sim: %w", err)
	}
	return sys, nil
}

func (sm *simMachine) Backend() string   { return "sim" }
func (sm *simMachine) Module() string    { return sm.d.Lowered.Module.Name }
func (sm *simMachine) Inputs() []Signal  { return sm.ports.Inputs() }
func (sm *simMachine) Outputs() []Signal { return sm.ports.Outputs() }
func (sm *simMachine) Terminated() bool  { return false }

func (sm *simMachine) Ports() *Ports { return sm.ports }

func (sm *simMachine) StepSlots(present []bool, in, out []cval.Value) (bool, error) {
	return false, sm.sys.StepSlots(present, in, out)
}

func (sm *simMachine) Step(inputs map[string]cval.Value) (*Result, error) {
	return sm.adapter.Step(sm.StepSlots, inputs)
}

func (sm *simMachine) Reset() error {
	sys, err := buildSim(sm.d)
	if err != nil {
		return err
	}
	sm.sys = sys
	return nil
}

func (sm *simMachine) Snapshot() (Snapshot, error) { return nil, ErrUnsupported }
func (sm *simMachine) Restore(Snapshot) error      { return ErrUnsupported }
