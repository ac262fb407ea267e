package exec

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cval"
	"repro/internal/kernel"
)

// Ports is the slot-indexed view of a machine's signal interface: each
// input and output signal gets a fixed integer slot, resolved from
// names once when the machine is opened. The exec hot path is designed
// around it — a SlotStepper steps over presence vectors and value
// arrays positioned by slot, so the per-instant cost is array indexing
// instead of map hashing, and a caller that reuses the buffers Ports
// hands out steps without allocating.
//
// The presence vector layout is inputs first, then outputs: input i is
// bit i, output j is bit NumInputs()+j.
type Ports struct {
	inputs  []Signal
	outputs []Signal
	inSlot  map[string]int
	outSlot map[string]int
	inNames []string // sorted, for error messages
}

// NewPorts builds a port table over a machine's signal interface. Slot
// order is the given signal order — for the built-in backends, module
// declaration order.
func NewPorts(inputs, outputs []Signal) *Ports {
	p := &Ports{
		inputs:  inputs,
		outputs: outputs,
		inSlot:  make(map[string]int, len(inputs)),
		outSlot: make(map[string]int, len(outputs)),
		inNames: make([]string, 0, len(inputs)),
	}
	for i, s := range inputs {
		p.inSlot[s.Name] = i
		p.inNames = append(p.inNames, s.Name)
	}
	sort.Strings(p.inNames)
	for j, s := range outputs {
		p.outSlot[s.Name] = j
	}
	return p
}

// newPortsFromKernel builds a port table straight from kernel signals.
func newPortsFromKernel(inputs, outputs []*kernel.Signal) *Ports {
	ins := make([]Signal, len(inputs))
	for i, s := range inputs {
		ins[i] = Signal{Name: s.Name, Pure: s.Pure, Type: s.Type}
	}
	outs := make([]Signal, len(outputs))
	for j, s := range outputs {
		outs[j] = Signal{Name: s.Name, Pure: s.Pure, Type: s.Type}
	}
	return NewPorts(ins, outs)
}

// NumInputs returns the input slot count.
func (p *Ports) NumInputs() int { return len(p.inputs) }

// NumOutputs returns the output slot count.
func (p *Ports) NumOutputs() int { return len(p.outputs) }

// Inputs lists the input signals in slot order.
func (p *Ports) Inputs() []Signal { return p.inputs }

// Outputs lists the output signals in slot order.
func (p *Ports) Outputs() []Signal { return p.outputs }

// InputSlot resolves an input signal name to its slot.
func (p *Ports) InputSlot(name string) (int, bool) {
	i, ok := p.inSlot[name]
	return i, ok
}

// OutputSlot resolves an output signal name to its slot.
func (p *Ports) OutputSlot(name string) (int, bool) {
	j, ok := p.outSlot[name]
	return j, ok
}

// PresentLen returns the presence vector length (inputs then outputs).
func (p *Ports) PresentLen() int { return len(p.inputs) + len(p.outputs) }

// NewPresent allocates a presence vector of the right length.
func (p *Ports) NewPresent() []bool { return make([]bool, p.PresentLen()) }

// NewInputs allocates the input value array (all entries invalid — the
// caller fills the slots of the valued inputs it presents).
func (p *Ports) NewInputs() []cval.Value { return make([]cval.Value, len(p.inputs)) }

// NewOutputs allocates the output value array with storage of each
// valued output's type preallocated, so a SlotStepper can copy emitted
// value bytes in place and the steady-state step never allocates. Pure
// output slots stay invalid.
func (p *Ports) NewOutputs() []cval.Value { return newValueStore(p.outputs) }

// newValueStore allocates one value per signal, with storage of its
// type for the valued ones; pure signals' entries stay invalid.
func newValueStore(sigs []Signal) []cval.Value {
	vals := make([]cval.Value, len(sigs))
	for j, s := range sigs {
		if !s.Pure && s.Type != nil {
			vals[j] = cval.New(s.Type)
		}
	}
	return vals
}

// BindInstant resolves a string-keyed input instant onto slot vectors:
// input presence bits are set (output bits are left alone — the step
// rewrites them), and vals[i] receives input i's supplied value (or the
// invalid value). Unknown names and values on pure signals are rejected
// with the same errors as the map Step path, the first bad name in
// sorted order when there are several.
func (p *Ports) BindInstant(inputs map[string]cval.Value, present []bool, vals []cval.Value) error {
	for i := range p.inputs {
		present[i] = false
		vals[i] = cval.Value{}
	}
	for name, val := range inputs {
		i, err := p.inputSlot(name, val)
		if err != nil {
			return firstBadInput(inputs, func(name string, val cval.Value) error {
				_, err := p.inputSlot(name, val)
				return err
			})
		}
		present[i] = true
		vals[i] = val
	}
	return nil
}

// inputSlot resolves one named input to its slot and checks its value.
func (p *Ports) inputSlot(name string, val cval.Value) (int, error) {
	i, ok := p.inSlot[name]
	if !ok {
		return 0, &UnknownInputError{Name: name, Valid: p.inNames}
	}
	if val.IsValid() && p.inputs[i].Pure {
		return 0, &PureValueError{Name: name}
	}
	return i, nil
}

// OutputMap translates a stepped presence vector and output value array
// back to the string-keyed Result form, cloning values so the caller
// owns them independently of the reused slot buffers.
func (p *Ports) OutputMap(present []bool, out []cval.Value) map[string]cval.Value {
	n := len(p.inputs)
	named := make(map[string]cval.Value, len(p.outputs))
	for j, s := range p.outputs {
		if !present[n+j] {
			continue
		}
		if v := out[j]; v.IsValid() {
			named[s.Name] = v.Clone()
		} else {
			named[s.Name] = cval.Value{}
		}
	}
	return named
}

// SlotStepper is the optional extension interface of Machine for
// backends whose hot path is slot-indexed. The Session batch paths,
// trace recording, and benchmarks detect it and step through slots,
// bypassing per-instant map construction; everything else keeps using
// the map Step, which such backends implement as a thin adapter
// (SlotAdapter).
type SlotStepper interface {
	Machine

	// Ports returns the machine's slot resolution table. It is fixed
	// for the machine's lifetime.
	Ports() *Ports

	// StepSlots runs one synchronous instant over slot-indexed I/O.
	// present holds input presence bits [0,NumInputs) set by the
	// caller; the machine clears and rewrites the output bits
	// [NumInputs,PresentLen). in[i] optionally carries input slot i's
	// value (invalid = presence only). out[j] is caller-owned storage
	// for output slot j: when it has storage of the output type's size
	// (as NewOutputs preallocates), the machine copies each emitted
	// value's bytes into it. The caller may reuse all three buffers
	// across instants; a steady-state step performs no allocations.
	StepSlots(present []bool, in, out []cval.Value) (terminated bool, err error)
}

// SlotAdapter implements the map-keyed Step contract on top of a slot
// stepper, reusing one set of slot buffers across instants. Backends
// embed one so the slot path is the only stepping code they carry.
type SlotAdapter struct {
	ports   *Ports
	present []bool
	in      []cval.Value
	out     []cval.Value
}

// NewSlotAdapter allocates the adapter's reusable slot buffers.
func NewSlotAdapter(p *Ports) *SlotAdapter {
	return &SlotAdapter{ports: p, present: p.NewPresent(), in: p.NewInputs(), out: p.NewOutputs()}
}

// Ports returns the adapter's port table.
func (a *SlotAdapter) Ports() *Ports { return a.ports }

// Step binds a string-keyed instant onto the adapter's slot buffers,
// runs the given slot step, and translates the outputs back to a
// Result.
func (a *SlotAdapter) Step(step func(present []bool, in, out []cval.Value) (bool, error),
	inputs map[string]cval.Value) (*Result, error) {
	if err := a.ports.BindInstant(inputs, a.present, a.in); err != nil {
		return nil, err
	}
	terminated, err := step(a.present, a.in, a.out)
	if err != nil {
		return nil, err
	}
	return &Result{Outputs: a.ports.OutputMap(a.present, a.out), Terminated: terminated}, nil
}

// stepSlotScratch is the per-entry scratch the Session and trace paths
// use when a machine turns out to be a SlotStepper: one buffer set,
// allocated when the machine is opened, reused for every instant of it.
type stepSlotScratch struct {
	s       SlotStepper
	ports   *Ports
	present []bool
	in      []cval.Value
	out     []cval.Value
	// inStore holds each valued input's storage for stepEncoded, which
	// decodes wire hex straight into it; the machine copies input bytes
	// into its own state, so the storage is free again after each step.
	inStore []cval.Value
}

// newStepSlotScratch prepares scratch for a machine if (and only if) it
// steps through slots; otherwise it returns nil and callers fall back
// to the map path.
func newStepSlotScratch(m Machine) *stepSlotScratch {
	s, ok := m.(SlotStepper)
	if !ok {
		return nil
	}
	p := s.Ports()
	return &stepSlotScratch{s: s, ports: p, present: p.NewPresent(), in: p.NewInputs(), out: p.NewOutputs(),
		inStore: newValueStore(p.inputs)}
}

// step runs one instant through the slot path, returning the same
// Result shape as Machine.Step.
func (sc *stepSlotScratch) step(inputs map[string]cval.Value) (*Result, error) {
	p := sc.ports
	if err := p.BindInstant(inputs, sc.present, sc.in); err != nil {
		return nil, err
	}
	terminated, err := sc.s.StepSlots(sc.present, sc.in, sc.out)
	if err != nil {
		return nil, err
	}
	return &Result{Outputs: p.OutputMap(sc.present, sc.out), Terminated: terminated}, nil
}

// stepEncoded runs one instant given as a wire input map and returns
// its Event, Instant unset. It is DecodeInstant, the slot step and
// EncodeInstant of inputs and outputs in one pass over the slots, with
// the same results and error texts: hex decodes straight into inStore,
// and output values are encoded from the output slots, one allocation
// each. When every input value is already canonical ("" or "0x" and
// lowercase hex of the signal's width) the event's Inputs is enc
// itself; otherwise it is a fresh map with the values re-encoded.
func (sc *stepSlotScratch) stepEncoded(enc map[string]string) (Event, error) {
	p := sc.ports
	for i := range p.inputs {
		sc.present[i] = false
		sc.in[i] = cval.Value{}
	}
	canonical, pure := true, false
	for name, s := range enc {
		i, ok := p.inSlot[name]
		if !ok {
			return Event{}, firstBadInput(enc, p.decodeErr)
		}
		sc.present[i] = true
		if s == "" {
			continue
		}
		v := sc.inStore[i]
		ok, canon := decodeHex(v.B, s)
		if !ok || !v.IsValid() {
			// Not hex of the signal's width (or no storage, a pure
			// signal): DecodeValue reports it exactly as DecodeInstant.
			dv, err := DecodeValue(p.inputs[i].Type, s)
			if err != nil {
				return Event{}, firstBadInput(enc, p.decodeErr)
			}
			v, canon = dv, false
		}
		pure = pure || p.inputs[i].Pure
		sc.in[i] = v
		canonical = canonical && canon
	}
	if pure {
		// Every name decoded, as DecodeInstant would have checked
		// first; now report the pure-signal value BindInstant would.
		return Event{}, firstBadInput(enc, func(name, s string) error {
			if s != "" && p.inputs[p.inSlot[name]].Pure {
				return &PureValueError{Name: name}
			}
			return nil
		})
	}
	terminated, err := sc.s.StepSlots(sc.present, sc.in, sc.out)
	if err != nil {
		return Event{}, err
	}
	ev := Event{Outputs: p.encodeOutputs(sc.present, sc.out), Terminated: terminated}
	switch {
	case len(enc) == 0:
	case canonical:
		ev.Inputs = enc
	default:
		ev.Inputs = make(map[string]string, len(enc))
		for name := range enc {
			ev.Inputs[name] = EncodeValue(sc.in[p.inSlot[name]])
		}
	}
	return ev, nil
}

// decodeErr is the error DecodeInstant reports for one wire input, or
// nil.
func (p *Ports) decodeErr(name, s string) error {
	i, ok := p.inSlot[name]
	if !ok {
		return &UnknownInputError{Name: name, Valid: p.inNames}
	}
	if _, err := DecodeValue(p.inputs[i].Type, s); err != nil {
		return fmt.Errorf("input %s: %w", name, err)
	}
	return nil
}

// decodeHex decodes s — hex digits of exactly dst's width, optionally
// prefixed with "0x" — into dst, reporting whether s had that form and
// whether it was canonical ("0x" and lowercase digits). On failure dst
// holds garbage.
func decodeHex(dst []byte, s string) (ok, canonical bool) {
	h := strings.TrimPrefix(s, "0x")
	if len(h) != 2*len(dst) {
		return false, false
	}
	if _, err := hex.Decode(dst, []byte(h)); err != nil {
		return false, false
	}
	return true, len(h) < len(s) && strings.ToLower(h) == h
}

// encodeOutputs is OutputMap then EncodeInstant without the
// intermediate map: the present outputs' encoded values, nil when none
// is present.
func (p *Ports) encodeOutputs(present []bool, out []cval.Value) map[string]string {
	var named map[string]string
	for j, s := range p.outputs {
		if present[len(p.inputs)+j] {
			if named == nil {
				named = make(map[string]string)
			}
			named[s.Name] = EncodeValue(out[j])
		}
	}
	return named
}
