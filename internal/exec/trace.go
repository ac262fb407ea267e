package exec

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/ctypes"
	"repro/internal/cval"
)

// TraceVersion is the current trace format version.
const TraceVersion = 1

// Event is one recorded instant. Signal values are encoded as strings:
// "" for a pure (valueless) presence, "0x…" for a valued signal's raw
// big-endian bytes — the same layout cval uses and generated code
// computes, so traces diff bit-for-bit across engines and languages.
type Event struct {
	// Instant is the zero-based instant index.
	Instant int `json:"i"`
	// Inputs maps present input names to encoded values.
	Inputs map[string]string `json:"in,omitempty"`
	// Outputs maps emitted output names to encoded values.
	Outputs map[string]string `json:"out,omitempty"`
	// Terminated marks the program's final instant.
	Terminated bool `json:"term,omitempty"`
}

// Trace is a canonical execution record: which module ran, on which
// backend, and what each instant consumed and emitted. On disk it is
// JSONL: a header object line followed by one Event object per line.
type Trace struct {
	// Version is the format version (TraceVersion).
	Version int `json:"v"`
	// Module names the executed module.
	Module string `json:"module"`
	// Backend names the engine that produced the trace.
	Backend string `json:"backend"`

	// Events are the recorded instants, in order.
	Events []Event `json:"-"`
}

// NewTrace starts an empty trace.
func NewTrace(module, backend string) *Trace {
	return &Trace{Version: TraceVersion, Module: module, Backend: backend}
}

// Append records one executed instant.
func (t *Trace) Append(inputs map[string]cval.Value, res *Result) {
	t.Events = append(t.Events, Event{
		Instant:    len(t.Events),
		Inputs:     EncodeInstant(inputs),
		Outputs:    EncodeInstant(res.Outputs),
		Terminated: res.Terminated,
	})
}

// Encode serializes the trace as JSONL: the header through
// encoding/json, each event through AppendEvent.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(t); err != nil {
		return err
	}
	for i := range t.Events {
		if _, err := bw.Write(AppendEvent(bw.AvailableBuffer(), &t.Events[i])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL trace. Lines grow as needed: one instant of
// a design with many wide signals (or a batched daemon response) can
// exceed any fixed scanner cap, so lines are assembled through a
// growable buffer instead of bufio.Scanner's hard token limit.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var t *Trace
	for {
		line, readErr := br.ReadBytes('\n')
		if readErr != nil && readErr != io.EOF {
			return nil, readErr
		}
		if s := bytes.TrimSpace(line); len(s) > 0 {
			if t == nil {
				t = &Trace{}
				if err := json.Unmarshal(s, t); err != nil {
					return nil, fmt.Errorf("trace header: %w", err)
				}
				if t.Version != TraceVersion {
					return nil, fmt.Errorf("trace version %d not supported (want %d)", t.Version, TraceVersion)
				}
			} else {
				var ev Event
				if err := ParseEvent(s, &ev); err != nil {
					return nil, fmt.Errorf("trace event %d: %w", len(t.Events), err)
				}
				t.Events = append(t.Events, ev)
			}
		}
		if readErr == io.EOF {
			break
		}
	}
	if t == nil {
		return nil, fmt.Errorf("empty trace")
	}
	return t, nil
}

// EncodeValue renders a signal value canonically: "" for a pure
// presence, "0x…" hex of the big-endian bytes otherwise.
func EncodeValue(v cval.Value) string {
	if !v.IsValid() {
		return ""
	}
	const digits = "0123456789abcdef"
	var sb strings.Builder
	sb.Grow(2 + 2*len(v.B))
	sb.WriteString("0x")
	for _, c := range v.B {
		sb.WriteByte(digits[c>>4])
		sb.WriteByte(digits[c&0xf])
	}
	return sb.String()
}

// DecodeValue parses an encoded value against the signal's type; ""
// yields the invalid (pure-presence) value.
func DecodeValue(t ctypes.Type, s string) (cval.Value, error) {
	if s == "" {
		return cval.Value{}, nil
	}
	if t == nil {
		return cval.Value{}, fmt.Errorf("value %q for a pure signal", s)
	}
	b, err := hex.DecodeString(strings.TrimPrefix(s, "0x"))
	if err != nil {
		return cval.Value{}, fmt.Errorf("bad value %q: %w", s, err)
	}
	if len(b) != t.Size() {
		return cval.Value{}, fmt.Errorf("value %q: %d bytes for %s (want %d)", s, len(b), t, t.Size())
	}
	return cval.Value{Type: t, B: b}, nil
}

// EncodeInstant renders one instant's signal map.
func EncodeInstant(in map[string]cval.Value) map[string]string {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]string, len(in))
	for name, v := range in {
		out[name] = EncodeValue(v)
	}
	return out
}

// DecodeInstant parses one instant's input map against a machine's
// input signal types. Names resolve by a scan of m.Inputs(); the sorted
// name list an UnknownInputError carries is built only on that error.
// When several names are bad, the first in sorted order is reported.
func DecodeInstant(m Machine, in map[string]string) (map[string]cval.Value, error) {
	if len(in) == 0 {
		return nil, nil
	}
	sigs := m.Inputs()
	out := make(map[string]cval.Value, len(in))
	for name, enc := range in {
		v, err := decodeInput(sigs, name, enc)
		if err != nil {
			return nil, firstBadInput(in, func(name, enc string) error {
				_, err := decodeInput(sigs, name, enc)
				return err
			})
		}
		out[name] = v
	}
	return out, nil
}

// decodeInput decodes one named input value against the signals.
func decodeInput(sigs []Signal, name, enc string) (cval.Value, error) {
	i := slices.IndexFunc(sigs, func(s Signal) bool { return s.Name == name })
	if i < 0 {
		return cval.Value{}, &UnknownInputError{Name: name, Valid: sortedNames(sigs)}
	}
	v, err := DecodeValue(sigs[i].Type, enc)
	if err != nil {
		return cval.Value{}, fmt.Errorf("input %s: %w", name, err)
	}
	return v, nil
}

// firstBadInput re-checks an instant's inputs in sorted name order and
// returns the first failure, so an instant naming several bad inputs
// is reported the same way on every run. Callers scan in map order and
// call it only once they have seen a failure.
func firstBadInput[V any](in map[string]V, check func(name string, v V) error) error {
	for _, name := range slices.Sorted(maps.Keys(in)) {
		if err := check(name, in[name]); err != nil {
			return err
		}
	}
	return nil
}

// sortedNames lists the signals' names in sorted order.
func sortedNames(sigs []Signal) []string {
	names := make([]string, len(sigs))
	for i, s := range sigs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// Record steps the machine through the input instants, recording a
// trace. Recording stops after the instant in which the program
// terminates (that instant is included). Machines stepping through the
// slot-indexed hot path (SlotStepper) are driven through it with one
// reused buffer set.
func Record(m Machine, instants []map[string]cval.Value) (*Trace, error) {
	t := NewTrace(m.Module(), m.Backend())
	step := m.Step
	if sc := newStepSlotScratch(m); sc != nil {
		step = sc.step
	}
	for i, in := range instants {
		res, err := step(in)
		if err != nil {
			return nil, fmt.Errorf("instant %d: %w", i, err)
		}
		t.Append(in, res)
		if res.Terminated {
			break
		}
	}
	return t, nil
}

// Replay drives the machine with a recorded trace's inputs and returns
// the trace the machine actually produced; Diff the two to check
// cross-backend agreement.
func Replay(m Machine, t *Trace) (*Trace, error) {
	got := NewTrace(m.Module(), m.Backend())
	step := m.Step
	if sc := newStepSlotScratch(m); sc != nil {
		step = sc.step
	}
	for _, ev := range t.Events {
		in, err := DecodeInstant(m, ev.Inputs)
		if err != nil {
			return nil, fmt.Errorf("instant %d: %w", ev.Instant, err)
		}
		res, err := step(in)
		if err != nil {
			return nil, fmt.Errorf("instant %d: %w", ev.Instant, err)
		}
		got.Append(in, res)
		if res.Terminated {
			break
		}
	}
	return got, nil
}

// Hook observes executed instants as canonical trace events.
type Hook func(Event)

// WithHook wraps a machine so every successful Step also feeds the
// hook one encoded Event — the pluggable observation point trace
// recording, monitors, and debuggers share. Reset rewinds the instant
// counter.
func WithHook(m Machine, hook Hook) Machine {
	return &hookedMachine{Machine: m, hook: hook}
}

type hookedMachine struct {
	Machine
	hook    Hook
	instant int
}

func (h *hookedMachine) Step(inputs map[string]cval.Value) (*Result, error) {
	res, err := h.Machine.Step(inputs)
	if err != nil {
		return nil, err
	}
	h.hook(Event{
		Instant:    h.instant,
		Inputs:     EncodeInstant(inputs),
		Outputs:    EncodeInstant(res.Outputs),
		Terminated: res.Terminated,
	})
	h.instant++
	return res, nil
}

func (h *hookedMachine) Reset() error {
	if err := h.Machine.Reset(); err != nil {
		return err
	}
	h.instant = 0
	return nil
}

// hookedSnapshot pairs the inner snapshot with the instant counter so
// hook events stay correctly numbered across a restore.
type hookedSnapshot struct {
	inner   Snapshot
	instant int
}

func (h *hookedMachine) Snapshot() (Snapshot, error) {
	inner, err := h.Machine.Snapshot()
	if err != nil {
		return nil, err
	}
	return &hookedSnapshot{inner: inner, instant: h.instant}, nil
}

func (h *hookedMachine) Restore(s Snapshot) error {
	hs, ok := s.(*hookedSnapshot)
	if !ok {
		return fmt.Errorf("exec: hooked machine: cannot restore %T", s)
	}
	if err := h.Machine.Restore(hs.inner); err != nil {
		return err
	}
	h.instant = hs.instant
	return nil
}

// DiffError reports the first observable divergence between two
// traces. Instant is always the position of the first difference:
// when one trace is a strict prefix of the other, it is the first
// instant present on only one side.
type DiffError struct {
	// Instant is the index of the first diverging instant.
	Instant int
	// A and B describe each side's observation at that instant.
	A, B string
}

// Error renders the divergence.
func (e *DiffError) Error() string {
	return fmt.Sprintf("first divergence at instant %d:\n  A: [%s]\n  B: [%s]", e.Instant, e.A, e.B)
}

// Diff compares the observable behavior of two traces — emitted
// outputs and termination, instant by instant — and returns a
// *DiffError at the first divergence (inputs are provenance, not
// compared). Traces of different lengths are compared over their
// common prefix first, so the reported instant is the earliest real
// difference, not just "lengths differ". A nil return means the
// traces agree.
func Diff(a, b *Trace) error {
	n := min(len(a.Events), len(b.Events))
	for i := 0; i < n; i++ {
		ea, eb := a.Events[i], b.Events[i]
		sa := ObservationString(ea.Outputs, ea.Terminated)
		sb := ObservationString(eb.Outputs, eb.Terminated)
		if sa != sb {
			return &DiffError{Instant: i, A: sa, B: sb}
		}
	}
	if len(a.Events) != len(b.Events) {
		return &DiffError{
			Instant: n,
			A:       sideAt(a, n),
			B:       sideAt(b, n),
		}
	}
	return nil
}

// sideAt describes one trace's view of instant i, for length-mismatch
// diffs: either its observation or the fact that it already ended.
func sideAt(t *Trace, i int) string {
	if i >= len(t.Events) {
		return fmt.Sprintf("<trace ends after %d instants> (%s)", len(t.Events), t.Backend)
	}
	ev := t.Events[i]
	return fmt.Sprintf("%s (%d instants total, %s)",
		ObservationString(ev.Outputs, ev.Terminated), len(t.Events), t.Backend)
}

// ObservationString renders one instant's observable behavior
// canonically (sorted "name=value" list, plus a termination marker).
func ObservationString(outputs map[string]string, terminated bool) string {
	parts := make([]string, 0, len(outputs)+1)
	for name, v := range outputs {
		if v == "" {
			parts = append(parts, name)
		} else {
			parts = append(parts, name+"="+v)
		}
	}
	sort.Strings(parts)
	if terminated {
		parts = append(parts, "<terminated>")
	}
	return strings.Join(parts, " ")
}
