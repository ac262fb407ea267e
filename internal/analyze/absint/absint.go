// Package absint is the analyzer's abstract interpreter: an
// interval/constant dataflow engine over the compiled EFSM. It runs a
// worklist fixpoint over (control state × abstract store), where the
// store maps every variable and valued-signal slot to an integer
// interval. Each analysis interns its slots (module variables, valued
// signals, and C-function frame variables on first use) to ordinals,
// so a store is one value vector and copying it is one slice copy.
//
// The transfer functions follow the C semantics of internal/dataexec —
// int32/uint32 value spaces, truncating stores, the &31 shift mask,
// div-by-zero traps — folding constants through cval's kernel, so that
// anything the abstract execution calls certain really happens on the
// concrete machine.
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
	"slices"

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
	kUnset                // a store slot never set; never leaves a Store
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

// slotKind tells apart the three owners of a store slot: HavocVars
// forgets variable and frame slots but keeps signal values, and
// JoinWith adopts a frame slot the receiving store lacks.
type slotKind uint8

const (
	slotVar slotKind = iota
	slotSig
	slotFrame
)

// slotTable interns one analysis's storage locations to ordinals:
// module variables, valued signals, and C-function frame variables on
// first use. Every store of the analysis indexes its values by them.
type slotTable struct {
	vars   map[*kernel.Var]int
	sigs   map[*kernel.Signal]int
	frames map[*sem.VarInfo]int
	kinds  []slotKind
	types  []ctypes.Type
}

func (t *slotTable) add(k slotKind, typ ctypes.Type) int {
	t.kinds = append(t.kinds, k)
	t.types = append(t.types, typ)
	return len(t.kinds) - 1
}

func (t *slotTable) varSlot(v *kernel.Var) int {
	id, ok := t.vars[v]
	if !ok {
		id = t.add(slotVar, v.Type)
		t.vars[v] = id
	}
	return id
}

func (t *slotTable) sigSlot(sig *kernel.Signal) int {
	id, ok := t.sigs[sig]
	if !ok {
		id = t.add(slotSig, sig.Type)
		t.sigs[sig] = id
	}
	return id
}

func (t *slotTable) frameSlot(vi *sem.VarInfo) int {
	id, ok := t.frames[vi]
	if !ok {
		id = t.add(slotFrame, vi.Type)
		t.frames[vi] = id
	}
	return id
}

// Store is one abstract machine state: every module variable and
// valued-signal slot, plus the C-function frame slots live during a
// call. Bot marks the whole store unreachable (an infeasible path).
//
// The values form one vector indexed by the slot table the store
// shares with every store cloned from it, so a clone is one slice
// copy. A slot the store never set holds kUnset: a variable or signal
// slot then reads as its type's full range, and a frame slot is not in
// the frame.
type Store struct {
	Bot  bool
	tab  *slotTable
	vals []Val
}

// NewStore returns an empty (top-everything) store over a fresh slot
// table; every store that shares its slots is cloned from it.
func NewStore() *Store {
	return &Store{tab: &slotTable{
		vars:   make(map[*kernel.Var]int),
		sigs:   make(map[*kernel.Signal]int),
		frames: make(map[*sem.VarInfo]int),
	}}
}

// Clone deep-copies the store.
func (s *Store) Clone() *Store {
	return &Store{Bot: s.Bot, tab: s.tab, vals: slices.Clone(s.vals)}
}

// get reads slot id; ok is false when the store never set it.
func (s *Store) get(id int) (Val, bool) {
	if id < len(s.vals) && s.vals[id].k != kUnset {
		return s.vals[id], true
	}
	return Val{}, false
}

// put writes slot id as given: no truncation, and Bot is not checked.
func (s *Store) put(id int, v Val) {
	if n := len(s.vals); id >= n {
		s.vals = append(s.vals, make([]Val, len(s.tab.kinds)-n)...)
		for i := n; i < len(s.vals); i++ {
			s.vals[i] = Val{k: kUnset}
		}
	}
	s.vals[id] = v
}

// sameSlots panics when o indexes a different slot table than s: their
// ordinals would name different locations.
func (s *Store) sameSlots(o *Store) {
	if s.tab != o.tab {
		panic("absint: stores of different analyses combined")
	}
}

// SetBot marks the store unreachable.
func (s *Store) SetBot() { s.Bot = true }

// VarVal reads a module variable slot.
func (s *Store) VarVal(v *kernel.Var) Val {
	if s.Bot {
		return Bot()
	}
	if id, ok := s.tab.vars[v]; ok {
		if val, ok := s.get(id); ok {
			return val
		}
	}
	return topOf(v.Type)
}

// SetVar writes a module variable slot, truncating into its storage
// type like a concrete assignment would.
func (s *Store) SetVar(v *kernel.Var, val Val) {
	if s.Bot {
		return
	}
	s.put(s.tab.varSlot(v), inSpace(val, v.Type))
}

// SigVal reads a valued signal slot.
func (s *Store) SigVal(sig *kernel.Signal) Val {
	if s.Bot {
		return Bot()
	}
	if id, ok := s.tab.sigs[sig]; ok {
		if val, ok := s.get(id); ok {
			return val
		}
	}
	return topOf(sig.Type)
}

// SetSig writes a valued signal slot (an emit).
func (s *Store) SetSig(sig *kernel.Signal, val Val) {
	if s.Bot {
		return
	}
	s.put(s.tab.sigSlot(sig), inSpace(val, sig.Type))
}

// FrameVal reads a function frame slot; ok is false when the slot is
// not in the frame (the variable is module-level).
func (s *Store) FrameVal(vi *sem.VarInfo) (Val, bool) {
	id, ok := s.tab.frames[vi]
	if !ok {
		return Val{}, false
	}
	return s.get(id)
}

// SetFrame writes a function frame slot.
func (s *Store) SetFrame(vi *sem.VarInfo, val Val) {
	if s.Bot {
		return
	}
	s.put(s.tab.frameSlot(vi), inSpace(val, vi.Type))
}

// restoreFrame puts frame slot vi back the way a call found it: val
// when the slot existed, out of the frame when it did not.
func (s *Store) restoreFrame(vi *sem.VarInfo, val Val, existed bool) {
	id := s.tab.frameSlot(vi)
	switch {
	case existed:
		s.put(id, val)
	case id < len(s.vals):
		s.vals[id] = Val{k: kUnset}
	}
}

// HavocVars forgets every mutable slot a call with unknown effects
// could touch: module variables and frame slots (emits cannot happen
// in data code, so signal values survive).
func (s *Store) HavocVars() {
	for id, v := range s.vals {
		if v.k != kUnset && s.tab.kinds[id] != slotSig {
			s.vals[id] = topOf(s.tab.types[id])
		}
	}
}

// JoinWith merges o into s (interval hulls slot-wise), reporting
// whether s changed. A Bot side contributes nothing.
func (s *Store) JoinWith(o *Store) bool {
	if o == nil || o.Bot {
		return false
	}
	s.sameSlots(o)
	if s.Bot {
		s.Bot = false
		s.vals = append(s.vals[:0], o.vals...)
		return true
	}
	changed := false
	for id, ov := range o.vals {
		if ov.k == kUnset {
			continue
		}
		cur, ok := s.get(id)
		if !ok {
			if s.tab.kinds[id] == slotFrame {
				// Slot scoped to the other branch: unreadable here, adopt it.
				s.put(id, inSpace(ov, s.tab.types[id]))
				continue
			}
			cur = Bot()
		}
		if nv := join(cur, ov); nv != cur {
			s.put(id, nv)
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
	s.sameSlots(prev)
	for id, v := range s.vals {
		if v.k == kUnset {
			continue
		}
		if pv, ok := prev.get(id); !ok || v != pv {
			s.vals[id] = topOf(s.tab.types[id])
		}
	}
}
