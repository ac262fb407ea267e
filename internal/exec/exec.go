// Package exec is the unified execution entry point for compiled ECL
// designs, mirroring what internal/driver is for compilation. The
// paper's environment runs a design many ways — reference
// interpretation, the compiled-EFSM software implementation, RTOS
// system simulation, synthesized code — and each engine historically
// had its own incompatible stepping interface. This package gives them
// one: a Machine is any engine that can run a design one synchronous
// instant at a time with string-keyed typed signal values, report
// termination, and (where the backend supports it) save and branch its
// full state.
//
// Backends register themselves by name (interp, efsm, efsm-min,
// efsm-table, sim);
// Open instantiates one over a compiled Design. A canonical JSONL
// Trace format (trace.go) records, replays, and diffs executions
// across backends — including externally generated code — and the
// Session layer (session.go) manages many concurrently stepping
// machines in one process.
package exec

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/kernel"
)

// Signal describes one interface signal of a machine.
type Signal struct {
	// Name is the signal's unique name within the design.
	Name string
	// Pure reports whether the signal carries no value.
	Pure bool
	// Type is the carried value's C type (nil for pure signals).
	Type ctypes.Type
}

// Result reports one executed instant.
type Result struct {
	// Outputs maps each emitted output signal's name to its carried
	// value (an invalid Value for pure signals).
	Outputs map[string]cval.Value
	// Terminated reports whether the program finished this instant.
	Terminated bool
}

// Snapshot is an opaque, backend-owned copy of a machine's full
// execution state. A snapshot taken from one machine restores into any
// machine opened by the same backend over the same design.
type Snapshot interface{}

// ErrUnsupported is returned by Snapshot/Restore on backends that
// cannot save and branch state (e.g. the RTOS system simulator).
var ErrUnsupported = errors.New("exec: operation not supported by this backend")

// Machine is one runnable instance of a compiled design. Machines are
// not safe for concurrent use; the Session layer serializes access.
//
// Extension interfaces: a backend whose hot path is slot-indexed also
// implements SlotStepper (Ports plus StepSlots); consumers must
// type-assert and fall back to Step when the assertion fails, and a
// machine that implements SlotStepper must give both paths identical
// observable behavior — Step is conventionally a thin adapter
// (SlotAdapter) over StepSlots.
type Machine interface {
	// Backend names the engine that opened this machine.
	Backend() string
	// Module names the executed module.
	Module() string
	// Inputs lists the machine's input signals.
	Inputs() []Signal
	// Outputs lists the machine's output signals.
	Outputs() []Signal
	// Step runs one synchronous instant. The map keys name the present
	// input signals; valued inputs carry their value (an invalid Value
	// leaves the signal's stored value unchanged). Naming a signal that
	// is not an input of the module is an error (*UnknownInputError).
	Step(inputs map[string]cval.Value) (*Result, error)
	// Reset returns the machine to its boot state.
	Reset() error
	// Terminated reports whether the program has finished.
	Terminated() bool
	// Snapshot captures the machine's full state, or ErrUnsupported.
	Snapshot() (Snapshot, error)
	// Restore rewinds to a snapshot taken from a machine of the same
	// backend over the same design, or ErrUnsupported.
	Restore(Snapshot) error
}

// UnknownInputError reports a Step or script input naming a signal
// that is not an input of the simulated module.
type UnknownInputError struct {
	// Name is the offending signal name.
	Name string
	// Valid lists the module's actual input names, sorted.
	Valid []string
}

// Error lists the valid input names so the caller can fix the script.
func (e *UnknownInputError) Error() string {
	if len(e.Valid) == 0 {
		return fmt.Sprintf("unknown input %q (the module has no inputs)", e.Name)
	}
	return fmt.Sprintf("unknown input %q (module inputs: %s)", e.Name, strings.Join(e.Valid, ", "))
}

// PureValueError reports a value given for a pure signal.
type PureValueError struct{ Name string }

// Error names the pure signal.
func (e *PureValueError) Error() string {
	return fmt.Sprintf("input %s is pure and carries no value", e.Name)
}

// ---------------------------------------------------------------------------
// Backend registry

// Backend is a named execution engine that can open Machines over
// compiled designs.
type Backend struct {
	// Name is the registry key (eclsim's -backend flag).
	Name string
	// Description is a one-line summary for usage messages.
	Description string
	// Conformant reports whether the backend steps with the reference
	// reaction semantics (one Step == one synchronous instant with no
	// extra boot reaction), making it eligible for N-way trace diffing.
	Conformant bool
	// Open instantiates a machine over a compiled design.
	Open func(d *core.Design) (Machine, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Backend{}
)

// Register adds a backend; it panics on a duplicate or empty name.
func Register(b Backend) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if b.Name == "" || b.Open == nil {
		panic("exec: Register with empty name or nil opener")
	}
	if _, dup := registry[b.Name]; dup {
		panic("exec: duplicate backend " + b.Name)
	}
	registry[b.Name] = b
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ConformantBackends lists the backends eligible for trace diffing.
func ConformantBackends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	var names []string
	for name, b := range registry {
		if b.Conformant {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Lookup returns the named backend.
func Lookup(name string) (Backend, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// Open instantiates the named backend over a compiled design.
func Open(backend string, d *core.Design) (Machine, error) {
	b, ok := Lookup(backend)
	if !ok {
		return nil, fmt.Errorf("exec: unknown backend %q (available: %s)",
			backend, strings.Join(Backends(), ", "))
	}
	return b.Open(d)
}

// ---------------------------------------------------------------------------
// Signal-name translation shared by the kernel-signal backends

// sigTable maps between the string-keyed exec interface and a set of
// kernel signal identities.
type sigTable struct {
	inputs   []Signal
	outputs  []Signal
	inByName map[string]*kernel.Signal
	inNames  []string // sorted, for error messages
}

func newSigTable(inputs, outputs []*kernel.Signal) *sigTable {
	t := &sigTable{inByName: make(map[string]*kernel.Signal, len(inputs))}
	for _, s := range inputs {
		t.inputs = append(t.inputs, Signal{Name: s.Name, Pure: s.Pure, Type: s.Type})
		t.inByName[s.Name] = s
		t.inNames = append(t.inNames, s.Name)
	}
	sort.Strings(t.inNames)
	for _, s := range outputs {
		t.outputs = append(t.outputs, Signal{Name: s.Name, Pure: s.Pure, Type: s.Type})
	}
	return t
}

// resolve translates a string-keyed input instant onto the module's
// signal identities, rejecting unknown names and values on pure
// signals; of several bad names, the first in sorted order.
func (t *sigTable) resolve(in map[string]cval.Value) (map[*kernel.Signal]cval.Value, error) {
	out := make(map[*kernel.Signal]cval.Value, len(in))
	for name, val := range in {
		sig, err := t.input(name, val)
		if err != nil {
			return nil, firstBadInput(in, func(name string, val cval.Value) error {
				_, err := t.input(name, val)
				return err
			})
		}
		out[sig] = val
	}
	return out, nil
}

// input resolves one named input and checks its value.
func (t *sigTable) input(name string, val cval.Value) (*kernel.Signal, error) {
	sig, ok := t.inByName[name]
	if !ok {
		return nil, &UnknownInputError{Name: name, Valid: t.inNames}
	}
	if val.IsValid() && sig.Pure {
		return nil, &PureValueError{Name: name}
	}
	return sig, nil
}

// nameOutputs translates an output map back to string keys, cloning
// values so the caller owns them.
func nameOutputs(outs map[*kernel.Signal]cval.Value) map[string]cval.Value {
	named := make(map[string]cval.Value, len(outs))
	for sig, val := range outs {
		if val.IsValid() {
			named[sig.Name] = val.Clone()
		} else {
			named[sig.Name] = cval.Value{}
		}
	}
	return named
}
