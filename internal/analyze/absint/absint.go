// Package absint is the analyzer's abstract interpreter: an
// interval/constant dataflow engine over the compiled EFSM. It runs a
// worklist fixpoint over (control state × abstract store), where the
// store maps every variable and valued-signal slot to an integer
// interval, and the transfer functions follow the C semantics of
// internal/dataexec — int32/uint32 value spaces, truncating stores, the
// &31 shift mask, div-by-zero traps — folding constants through cval's
// kernel, so that anything the abstract execution calls certain really
// happens on the concrete machine.
//
// The engine reports three things the rule layer turns into findings:
//
//   - value-aware reachability (states no interval-consistent path can
//     enter, even though per-transition satisfiability says otherwise);
//   - per-path feasibility with the refuting guard condition (a
//     transition whose guard an interval proves false can never fire);
//   - certain data traps and certain integer wraps (a division whose
//     divisor is provably always zero, a shift count provably outside
//     0..31, signed arithmetic whose exact result never fits int32).
//
// Precision discipline: joins use interval hulls, loop heads and state
// entries widen to the slot's full type range after a few growing
// joins, and guard edges narrow the store by the tested comparison.
// Everything uncertain degrades to the slot type's full range, so the
// engine is sound for the "certain" verdicts the rules need and always
// terminates.
package absint

import (
	"fmt"

	"repro/internal/ctypes"
	"repro/internal/kernel"
	"repro/internal/sem"
)

// valKind discriminates the three shapes of an abstract value.
type valKind uint8

const (
	kBot   valKind = iota // no concrete value reaches this point
	kTop                  // untracked (floats, aggregates, given up)
	kRange                // integer interval [lo, hi]
)

// Val is an abstract value: bottom, top, or an integer interval. The
// interval invariant lo <= hi always holds for kRange.
type Val struct {
	k      valKind
	lo, hi int64
}

// Bot is the empty value (unreachable).
func Bot() Val { return Val{k: kBot} }

// Top is the unknown value (untracked type or lost precision).
func Top() Val { return Val{k: kTop} }

// Const is the singleton interval [c, c].
func Const(c int64) Val { return Val{k: kRange, lo: c, hi: c} }

// Interval is [lo, hi]; an empty interval (lo > hi) is Bot.
func Interval(lo, hi int64) Val {
	if lo > hi {
		return Bot()
	}
	return Val{k: kRange, lo: lo, hi: hi}
}

// IsBot reports whether no concrete value reaches here.
func (v Val) IsBot() bool { return v.k == kBot }

// IsTop reports whether the value is untracked.
func (v Val) IsTop() bool { return v.k == kTop }

// Const reports the single concrete value, if the interval is a point.
func (v Val) Const() (int64, bool) {
	if v.k == kRange && v.lo == v.hi {
		return v.lo, true
	}
	return 0, false
}

// Bounds reports the interval bounds (ok only for ranges).
func (v Val) Bounds() (lo, hi int64, ok bool) {
	if v.k != kRange {
		return 0, 0, false
	}
	return v.lo, v.hi, true
}

// Contains reports whether c may be the concrete value.
func (v Val) Contains(c int64) bool {
	switch v.k {
	case kBot:
		return false
	case kTop:
		return true
	}
	return v.lo <= c && c <= v.hi
}

// DefinitelyTrue reports whether every concrete value is nonzero.
func (v Val) DefinitelyTrue() bool { return v.k == kRange && (v.lo > 0 || v.hi < 0) }

// DefinitelyFalse reports whether the only concrete value is zero.
func (v Val) DefinitelyFalse() bool { return v.k == kRange && v.lo == 0 && v.hi == 0 }

// String renders the value for trap details and debugging.
func (v Val) String() string {
	switch v.k {
	case kBot:
		return "unreachable"
	case kTop:
		return "unknown"
	}
	if v.lo == v.hi {
		return fmt.Sprintf("%d", v.lo)
	}
	return fmt.Sprintf("[%d..%d]", v.lo, v.hi)
}

// join is the interval hull (least upper bound).
func join(a, b Val) Val {
	switch {
	case a.k == kBot:
		return b
	case b.k == kBot:
		return a
	case a.k == kTop || b.k == kTop:
		return Top()
	}
	return Interval(min64(a.lo, b.lo), max64(a.hi, b.hi))
}

// meet is the interval intersection (greatest lower bound).
func meet(a, b Val) Val {
	switch {
	case a.k == kBot || b.k == kBot:
		return Bot()
	case a.k == kTop:
		return b
	case b.k == kTop:
		return a
	}
	return Interval(max64(a.lo, b.lo), min64(a.hi, b.hi))
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// typeRange is the representable range of an integer-like type; ok is
// false for floats, aggregates, and anything else the engine does not
// track.
func typeRange(t ctypes.Type) (lo, hi int64, ok bool) {
	if t == nil {
		return 0, 0, false
	}
	switch tt := t.(type) {
	case *ctypes.BoolType:
		return 0, 1, true
	case *ctypes.EnumType:
		return -1 << 31, 1<<31 - 1, true
	case *ctypes.IntType:
		bits := int64(tt.Bytes) * 8
		if tt.Unsigned {
			return 0, 1<<uint(bits) - 1, true
		}
		return -1 << uint(bits-1), 1<<uint(bits-1) - 1, true
	}
	return 0, 0, false
}

// topOf is the full range of t, or Top for untracked types.
func topOf(t ctypes.Type) Val {
	lo, hi, ok := typeRange(t)
	if !ok {
		return Top()
	}
	return Interval(lo, hi)
}

// inSpace reinterprets v as a value of type t, mirroring cval's
// truncating stores and conversions conservatively: a value that fits
// t's range is unchanged (the reinterpretation is the identity), and
// anything else degrades to t's full range.
func inSpace(v Val, t ctypes.Type) Val {
	lo, hi, ok := typeRange(t)
	if !ok {
		if v.k == kBot {
			return v
		}
		return Top()
	}
	if v.k == kBot {
		return v
	}
	if v.k == kRange && v.lo >= lo && v.hi <= hi {
		return v
	}
	return Interval(lo, hi)
}

// zeroOf is the abstract zero-initialized value of a slot of type t
// (cval.New zero-fills storage).
func zeroOf(t ctypes.Type) Val {
	if _, _, ok := typeRange(t); ok {
		return Const(0)
	}
	return Top()
}

// ---------------------------------------------------------------------------
// Store

// Store is one abstract machine state: every module variable and
// valued-signal slot, plus the C-function frame slots live during a
// call. Bot marks the whole store unreachable (an infeasible path).
type Store struct {
	Bot   bool
	Vars  map[*kernel.Var]Val
	Sigs  map[*kernel.Signal]Val
	Frame map[*sem.VarInfo]Val // function parameters and locals
}

// NewStore returns an empty (top-everything) store.
func NewStore() *Store {
	return &Store{
		Vars: make(map[*kernel.Var]Val),
		Sigs: make(map[*kernel.Signal]Val),
	}
}

// Clone deep-copies the store.
func (s *Store) Clone() *Store {
	c := &Store{
		Bot:  s.Bot,
		Vars: make(map[*kernel.Var]Val, len(s.Vars)),
		Sigs: make(map[*kernel.Signal]Val, len(s.Sigs)),
	}
	for k, v := range s.Vars {
		c.Vars[k] = v
	}
	for k, v := range s.Sigs {
		c.Sigs[k] = v
	}
	if s.Frame != nil {
		c.Frame = make(map[*sem.VarInfo]Val, len(s.Frame))
		for k, v := range s.Frame {
			c.Frame[k] = v
		}
	}
	return c
}

// SetBot marks the store unreachable.
func (s *Store) SetBot() { s.Bot = true }

// VarVal reads a module variable slot.
func (s *Store) VarVal(v *kernel.Var) Val {
	if s.Bot {
		return Bot()
	}
	if val, ok := s.Vars[v]; ok {
		return val
	}
	return topOf(v.Type)
}

// SetVar writes a module variable slot, truncating into its storage
// type like a concrete assignment would.
func (s *Store) SetVar(v *kernel.Var, val Val) {
	if s.Bot {
		return
	}
	s.Vars[v] = inSpace(val, v.Type)
}

// SigVal reads a valued signal slot.
func (s *Store) SigVal(sig *kernel.Signal) Val {
	if s.Bot {
		return Bot()
	}
	if val, ok := s.Sigs[sig]; ok {
		return val
	}
	return topOf(sig.Type)
}

// SetSig writes a valued signal slot (an emit).
func (s *Store) SetSig(sig *kernel.Signal, val Val) {
	if s.Bot {
		return
	}
	s.Sigs[sig] = inSpace(val, sig.Type)
}

// FrameVal reads a function frame slot; ok is false when the slot is
// not in the frame (the variable is module-level).
func (s *Store) FrameVal(vi *sem.VarInfo) (Val, bool) {
	if s.Frame == nil {
		return Val{}, false
	}
	v, ok := s.Frame[vi]
	return v, ok
}

// SetFrame writes a function frame slot.
func (s *Store) SetFrame(vi *sem.VarInfo, val Val) {
	if s.Bot {
		return
	}
	if s.Frame == nil {
		s.Frame = make(map[*sem.VarInfo]Val)
	}
	s.Frame[vi] = inSpace(val, vi.Type)
}

// HavocVars forgets every mutable slot a call with unknown effects
// could touch: module variables and frame slots (emits cannot happen
// in data code, so signal values survive).
func (s *Store) HavocVars() {
	for v := range s.Vars {
		s.Vars[v] = topOf(v.Type)
	}
	for vi := range s.Frame {
		s.Frame[vi] = topOf(vi.Type)
	}
}

// JoinWith merges o into s (interval hulls slot-wise), reporting
// whether s changed. A Bot side contributes nothing.
func (s *Store) JoinWith(o *Store) bool {
	if o == nil || o.Bot {
		return false
	}
	if s.Bot {
		s.Bot = false
		s.Vars = make(map[*kernel.Var]Val, len(o.Vars))
		for k, v := range o.Vars {
			s.Vars[k] = v
		}
		s.Sigs = make(map[*kernel.Signal]Val, len(o.Sigs))
		for k, v := range o.Sigs {
			s.Sigs[k] = v
		}
		s.Frame = nil
		if o.Frame != nil {
			s.Frame = make(map[*sem.VarInfo]Val, len(o.Frame))
			for k, v := range o.Frame {
				s.Frame[k] = v
			}
		}
		return true
	}
	changed := false
	for k, ov := range o.Vars {
		nv := join(s.Vars[k], ov)
		if nv != s.Vars[k] {
			s.Vars[k] = nv
			changed = true
		}
	}
	for k, ov := range o.Sigs {
		nv := join(s.Sigs[k], ov)
		if nv != s.Sigs[k] {
			s.Sigs[k] = nv
			changed = true
		}
	}
	for vi, ov := range o.Frame {
		cur, ok := s.Frame[vi]
		if !ok {
			// Slot scoped to the other branch: unreadable here, adopt it.
			s.SetFrame(vi, ov)
			continue
		}
		nv := join(cur, ov)
		if nv != cur {
			s.Frame[vi] = nv
			changed = true
		}
	}
	return changed
}

// WidenFrom replaces every slot that grew beyond prev with its full
// type range, guaranteeing the fixpoint converges.
func (s *Store) WidenFrom(prev *Store) {
	if s.Bot || prev == nil || prev.Bot {
		return
	}
	for k, v := range s.Vars {
		if pv, ok := prev.Vars[k]; !ok || v != pv {
			s.Vars[k] = topOf(k.Type)
		}
	}
	for k, v := range s.Sigs {
		if pv, ok := prev.Sigs[k]; !ok || v != pv {
			s.Sigs[k] = topOf(k.Type)
		}
	}
	for vi, v := range s.Frame {
		if pv, ok := prev.Frame[vi]; !ok || v != pv {
			s.Frame[vi] = topOf(vi.Type)
		}
	}
}
