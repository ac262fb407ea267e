// Package table flattens a compiled EFSM into a dense, allocation-free
// stepper — the "hardware-speed" software implementation the paper's
// compiled-code path promises. It is the only executor of compiled
// EFSMs: the efsm, efsm-min and efsm-table backends (internal/exec)
// and the RTOS tasks of the Table 1 simulator (internal/sim) all run
// it. Instead of walking the decision trees, it compiles the whole
// machine once:
//
//   - every variable and valued signal gets a fixed byte slot in one
//     preallocated arena (big-endian MIPS layout, exactly like cval);
//   - every state's decision tree — input-presence branches, C data
//     guards, and actions — is linearized into a flat bytecode program
//     over those slot indices;
//   - the full C data language (expressions, statements, calls with
//     frames) compiles to the same bytecode, with C function frames
//     carved out of the arena by a compile-time layout;
//   - signal I/O is slot-indexed: Step takes a presence vector and
//     value arrays positioned by port slot, never a map.
//
// C's scalar semantics (the space each operator computes in, int32 and
// uint32 wrapping, &31 shifts, division-by-zero errors, big-endian
// loads and stores) come from cval's kernel, which dataexec calls too.
// Every interned type descriptor records the space it computes in, and
// its kernel layout follows from its kind and width, so the step path
// never asks ctypes. The VM mirrors dataexec for the rest (byte-test
// truth, the Figure 2 array-reinterpret idiom, errors), so a table
// machine is trace-identical with the interpreting backends; the
// conformance and fuzz suites enforce that. The steady-state Step path
// performs no allocations: all failures take the (allocating) error
// path, and everything else runs over preallocated storage.
//
// The VM also keeps the books Table 1 is priced with. Every
// instruction carries a compile-time charge in work units, summed per
// reaction, and every leaf knows how many decision-tree nodes lead to
// it; Machine.Cost reports both after a Step, and the cost model
// (internal/cost) turns them into R3000 cycles.
package table

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/efsm"
)

// ---------------------------------------------------------------------------
// Compiled program model

// vkind classifies a runtime type descriptor.
type vkind uint8

const (
	kVoid vkind = iota
	kBool
	kInt  // signed integer (char, short, int, enum)
	kUint // unsigned integer
	kFloat
	kArray
	kStruct
	kOpaque // pointer-sized storage with no runtime operations
)

// typ is one interned runtime type descriptor. Scalars carry kind and
// width; aggregates carry enough layout to index and select at
// runtime. Interning is structural (ctypes.Identical), so descriptor
// index equality is type identity.
type typ struct {
	kind   vkind
	sp     cval.Space // the space it computes in as an operand
	size   int32
	elem   int32 // arrays: element type index (-1 otherwise)
	alen   int32 // arrays: length
	fields []fieldDesc
	ct     ctypes.Type // original type (compile-time and I/O conversions)
}

// layout is how a value of the type sits in its bytes, for cval's
// kernel.
func (t *typ) layout() cval.Layout {
	return cval.Layout{Size: int(t.size), Float: t.kind == kFloat, Signed: t.kind == kInt}
}

// fieldDesc is one struct/union member.
type fieldDesc struct {
	name string
	off  int32
	typ  int32
}

// slotMeta names one arena slot (variable or valued-signal store) for
// portable snapshots.
type slotMeta struct {
	name string
	off  int32
	size int32
	typ  int32
}

// portMeta describes one interface signal slot.
type portMeta struct {
	name   string
	pure   bool
	sig    int32 // internal presence index
	valOff int32 // arena offset of the value store (-1 for pure)
	valTyp int32
	ct     ctypes.Type // value type (nil for pure)
}

// emitMeta describes one compiled emit action.
type emitMeta struct {
	name    string
	sig     int32 // internal presence index
	outSlot int32 // output port slot, -1 for non-outputs
	valOff  int32 // value store offset, -1 for pure
	valTyp  int32
	valSize int32
}

// funcMeta describes one compiled C function (or extracted data
// function, which has no frame).
type funcMeta struct {
	name      string
	entry     int32
	frameSize int32
	params    []paramMeta
	ret       int32 // return type index (-1 for data functions)
	retSlot   int32 // static scratch for aggregate returns (-1 otherwise)
}

type paramMeta struct {
	off int32
	typ int32
}

// Program is an immutable compiled table, shareable across any number
// of Machine instances (backends reopen and fork machines freely).
type Program struct {
	name string // module name

	types      []typ
	code       []instr
	stateEntry []int32 // bytecode entry per state index
	stateID    []int   // EFSM state ID per state index
	initial    int32   // initial state index

	globalsSize int32 // vars + signal stores + static scratch
	arenaSize   int32 // globals + C call-frame region
	maxStack    int32 // operand stack bound (compile-time measured)
	numTags     int32 // switch-dispatch scratch registers
	numSigs     int32 // internal presence vector length

	// Interned indices of the predeclared scalar types (arithmetic
	// results and promotions resolve to these without lookups).
	tInt, tBool, tVoid int32
	spaceTyp           [4]int32 // result type per cval.Space

	vars  []slotMeta
	sigs  []slotMeta
	ins   []portMeta
	outs  []portMeta
	emits []emitMeta
	funcs []funcMeta
	names []string // field-selector names
	errs  []string // deferred compile-error messages
}

// Name returns the compiled module's name.
func (p *Program) Name() string { return p.name }

// NumInputs returns the input port count (slot order = module input
// order).
func (p *Program) NumInputs() int { return len(p.ins) }

// NumOutputs returns the output port count (slot order = module output
// order).
func (p *Program) NumOutputs() int { return len(p.outs) }

// States returns the number of compiled control states.
func (p *Program) States() int { return len(p.stateEntry) }

// ---------------------------------------------------------------------------
// Machine instances

type callFrame struct {
	retPC int32
	base  int32
	top   int32
	fn    int32 // callee index (-1 for data-function subroutines)
}

// Machine is one runnable instance of a compiled Program. All mutable
// state lives in preallocated storage sized by the compiler; the
// steady-state Step path allocates nothing. A Machine is not safe for
// concurrent use.
type Machine struct {
	p       *Program
	arena   []byte
	present []bool // internal signal presence, one bit per signal
	stack   []ref
	calls   []callFrame
	tags    []int64
	state   int32
	done    bool
	steps   int
	base    int32 // current C frame base
	top     int32 // frame-region high-water mark

	units, depth int // the last Step's cost (see Cost)
}

// New instantiates a machine at the program's boot state.
func New(p *Program) *Machine {
	return &Machine{
		p:       p,
		arena:   make([]byte, p.arenaSize),
		present: make([]bool, p.numSigs),
		stack:   make([]ref, p.maxStack),
		calls:   make([]callFrame, 0, maxCallDepth+2),
		tags:    make([]int64, p.numTags),
		state:   p.initial,
		base:    p.globalsSize,
		top:     p.globalsSize,
	}
}

// Program returns the shared compiled table.
func (m *Machine) Program() *Program { return m.p }

// Terminated reports whether the machine has finished.
func (m *Machine) Terminated() bool { return m.done }

// Cost reports the last Step's dynamic cost, which the cost model
// prices: the work units its instructions charged and the number of
// decision-tree nodes it visited, leaf included. A Step that fails or
// that finds the machine finished costs nothing.
func (m *Machine) Cost() (units, depth int) { return m.units, m.depth }

// Reset returns the machine to its boot state with zeroed stores.
func (m *Machine) Reset() {
	for i := range m.arena[:m.p.globalsSize] {
		m.arena[i] = 0
	}
	m.state = m.p.initial
	m.done = false
	m.base = m.p.globalsSize
	m.top = m.p.globalsSize
}

// Step runs one synchronous instant over slot-indexed I/O.
//
// present is the external presence vector, inputs first then outputs
// (length >= NumInputs+NumOutputs): the caller sets input bits, the
// machine rewrites the output bits. in[i] optionally carries input
// slot i's value (an invalid Value leaves the stored value unchanged;
// values on pure inputs are rejected). out[j] is caller-owned storage
// for output slot j: when an emitted output carries a value the
// machine copies the value bytes into out[j] if it has storage of the
// value type's size, so a caller reusing buffers from Ports sees every
// emitted value without a single allocation.
func (m *Machine) Step(present []bool, in, out []cval.Value) (terminated bool, err error) {
	p := m.p
	m.units, m.depth = 0, 0
	nIn, nOut := len(p.ins), len(p.outs)
	if len(present) < nIn+nOut || len(in) < nIn || len(out) < nOut {
		return false, fmt.Errorf("table: %s: slot vectors too short (need %d presence, %d in, %d out)",
			p.name, nIn+nOut, nIn, nOut)
	}
	for j := 0; j < nOut; j++ {
		present[nIn+j] = false
	}
	if m.done || m.state < 0 {
		return true, nil
	}
	for i := range m.present {
		m.present[i] = false
	}
	for i := 0; i < nIn; i++ {
		if !present[i] {
			continue
		}
		pm := &p.ins[i]
		m.present[pm.sig] = true
		if v := in[i]; v.IsValid() {
			if pm.valOff < 0 {
				return false, fmt.Errorf("table: input %s is pure and carries no value", pm.name)
			}
			if err := m.assignValue(pm.valTyp, pm.valOff, pm.ct, v); err != nil {
				return false, fmt.Errorf("table: input %s: %w", pm.name, err)
			}
		}
	}
	m.steps = 0
	return m.run(p.stateEntry[m.state], present, out)
}

// assignValue stores an externally supplied cval into an arena slot,
// mirroring cval.Value.Assign (identical copy, arithmetic conversion,
// array reinterpretation) without allocating.
func (m *Machine) assignValue(ti, off int32, slotType ctypes.Type, v cval.Value) error {
	t := &m.p.types[ti]
	if ctypes.Identical(slotType, v.Type) {
		copy(m.arena[off:off+t.size], v.B)
		return nil
	}
	switch t.kind {
	case kFloat:
		if !ctypes.IsArithmetic(v.Type) {
			return fmt.Errorf("cannot assign %s to %s", v.Type, slotType)
		}
		m.store(t, off, math.Float64bits(v.Float()))
		return nil
	case kBool:
		if !ctypes.IsArithmetic(v.Type) {
			return fmt.Errorf("cannot assign %s to %s", v.Type, slotType)
		}
		m.arena[off] = 0
		if v.Bool() {
			m.arena[off] = 1
		}
		return nil
	case kInt, kUint:
		if at, ok := v.Type.(*ctypes.ArrayType); ok && ctypes.IsInteger(at.Elem) {
			// Leading bytes, right-aligned (the Figure 2 idiom).
			n := int(t.size)
			if len(v.B) < n {
				n = len(v.B)
			}
			for i := int32(0); i < t.size; i++ {
				m.arena[off+i] = 0
			}
			copy(m.arena[off+t.size-int32(n):off+t.size], v.B[:n])
			return nil
		}
		if !ctypes.IsArithmetic(v.Type) {
			return fmt.Errorf("cannot assign %s to %s", v.Type, slotType)
		}
		if v.Type.Kind() == ctypes.KindFloat {
			m.store(t, off, uint64(int64(v.Float())))
		} else {
			m.store(t, off, uint64(v.Int()))
		}
		return nil
	}
	return fmt.Errorf("cannot assign %s to %s", v.Type, slotType)
}

// ---------------------------------------------------------------------------
// Snapshots

// Snapshot is a deep copy of a machine's execution state; it restores
// into any machine over the same Program.
type Snapshot struct {
	owner   *Program
	state   int32
	done    bool
	globals []byte
}

// Snapshot captures the machine's current state.
func (m *Machine) Snapshot() *Snapshot {
	g := make([]byte, m.p.globalsSize)
	copy(g, m.arena[:m.p.globalsSize])
	return &Snapshot{owner: m.p, state: m.state, done: m.done, globals: g}
}

// Restore rewinds the machine to a snapshot over the same Program.
func (m *Machine) Restore(s *Snapshot) error {
	if s.owner != m.p {
		return fmt.Errorf("table: snapshot belongs to a different program (%s)", s.owner.name)
	}
	copy(m.arena[:m.p.globalsSize], s.globals)
	m.state = s.state
	m.done = s.done
	m.base = m.p.globalsSize
	m.top = m.p.globalsSize
	return nil
}

// PortableSnapshot is the pointer-free form of a Snapshot: the control
// state by its EFSM state ID, variables and signal stores by name with
// raw big-endian bytes. A machine over a Program compiled from the same
// EFSM (even in a different process, as long as the machine was
// compiled from the same source) rebinds the names to its own slots and
// continues exactly where the snapshot left off.
type PortableSnapshot struct {
	// StateID is the current control state's EFSM state ID.
	StateID int
	// Done mirrors the machine's termination flag.
	Done bool
	// Vars maps variable names to their raw value bytes.
	Vars map[string][]byte
	// Sigs maps valued-signal names to their stored value bytes.
	Sigs map[string][]byte
}

// Portable converts a snapshot to its name-keyed form.
func (s *Snapshot) Portable() *PortableSnapshot {
	id := -1
	if s.state >= 0 {
		id = s.owner.stateID[s.state]
	}
	p := &PortableSnapshot{
		StateID: id,
		Done:    s.done,
		Vars:    make(map[string][]byte, len(s.owner.vars)),
		Sigs:    make(map[string][]byte, len(s.owner.sigs)),
	}
	for _, sm := range s.owner.vars {
		p.Vars[sm.name] = append([]byte(nil), s.globals[sm.off:sm.off+sm.size]...)
	}
	for _, sm := range s.owner.sigs {
		p.Sigs[sm.name] = append([]byte(nil), s.globals[sm.off:sm.off+sm.size]...)
	}
	return p
}

// SnapshotFromPortable rebinds a portable snapshot's names to this
// machine's program, validating state ID and store coverage.
func (m *Machine) SnapshotFromPortable(ps *PortableSnapshot) (*Snapshot, error) {
	idx := int32(-1)
	for i, id := range m.p.stateID {
		if id == ps.StateID {
			idx = int32(i)
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("table: portable snapshot: no state %d in program %s", ps.StateID, m.p.name)
	}
	g := make([]byte, m.p.globalsSize)
	fill := func(kind string, slots []slotMeta, src map[string][]byte) error {
		for _, sm := range slots {
			b, ok := src[sm.name]
			if !ok {
				return fmt.Errorf("table: portable snapshot: no value for %s %s", kind, sm.name)
			}
			if int32(len(b)) != sm.size {
				return fmt.Errorf("table: portable snapshot: %s %s: %d bytes (want %d)",
					kind, sm.name, len(b), sm.size)
			}
			copy(g[sm.off:sm.off+sm.size], b)
		}
		return nil
	}
	if err := fill("variable", m.p.vars, ps.Vars); err != nil {
		return nil, err
	}
	if err := fill("signal", m.p.sigs, ps.Sigs); err != nil {
		return nil, err
	}
	return &Snapshot{owner: m.p, state: idx, done: ps.Done, globals: g}, nil
}

// StateID returns the current control state's EFSM state ID, or -1
// when the machine has run off the end of its automaton.
func (m *Machine) StateID() int {
	if m.state < 0 {
		return -1
	}
	return m.p.stateID[m.state]
}

// ---------------------------------------------------------------------------
// Program-level memoization

// forCache memoizes table compilation per compiled EFSM, the same
// pattern exec uses for bisimulation minimization: sessions and
// conformance tests reopen backends over the same design constantly,
// and the compiled Program is immutable and shareable.
var forCache = newForCache()

type forResult struct {
	p   *Program
	err error
}

// For compiles (or returns the memoized table for) an EFSM machine.
func For(m *efsm.Machine) (*Program, error) {
	return forCache.get(m)
}

// Listing renders the compiled table as a deterministic textual
// artifact: slot layout, dispatch entries, and a bytecode disassembly.
// It is what the pipeline's emit-table phase caches — a reviewable,
// diffable record of exactly what the stepper will execute.
func (p *Program) Listing() string {
	return p.listing()
}

// itoa keeps strconv usage local (state IDs in listings).
func itoa(i int) string { return strconv.Itoa(i) }
