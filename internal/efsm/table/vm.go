package table

import (
	"fmt"
	"math"

	"repro/internal/cval"
	"repro/internal/token"
)

// The VM computes C's scalar operators through cval's kernel
// (internal/cval/arith.go), the same code dataexec calls, and mirrors
// dataexec operation for operation everywhere else. Every comment of
// the form "mirrors X" names the dataexec/cval behaviour the
// instruction reproduces; divergence there is a conformance bug.

// maxCallDepth bounds the C call stack (mirrors dataexec's 64-frame
// limit).
const maxCallDepth = 64

// maxSteps bounds loop iterations per reaction (dataexec counts every
// statement/expression per atomic action; the table VM ticks once per
// loop back-edge per reaction, which bounds the same runaway loops).
const maxSteps = 10_000_000

// op is a bytecode opcode.
type op uint8

const (
	opNop op = iota // no effect; carries a charge (unary plus)

	// Value refs.
	opPushG   // a=arena off, b=type: push global view
	opPushL   // a=frame-relative off, b=type: push frame view
	opPushImm // b=type, imm=payload: push immediate

	// Aggregate navigation.
	opIndex // pop index, pop array view, push element view
	opField // a=name index: pop struct view, push field view

	// Arithmetic.
	opUnary   // a=unary sub-op: pop x, push result
	opIncDec  // a=delta (+1/-1), b=1 for postfix: pop lvalue view, push value
	opBinary  // a=token.Kind: pop y, pop x, push x op y
	opConvert // a=type: pop x, push converted

	// Assignment.
	opAssign   // pop src, pop dst view, store, push dst view
	opAssignOp // a=token.Kind: pop src, pop dst view, dst = dst op src, push dst view
	opDrop     // pop

	// Control flow.
	opJump      // a=target
	opJumpFalse // a=target: pop, jump when false
	opJumpTrue  // a=target: pop, jump when true
	opTick      // loop back-edge bookkeeping (runaway-loop bound)

	// Switch dispatch.
	opStoreTag // a=tag register: pop, store integer tag
	opCaseEq   // a=tag register, b=target, imm=case value: conditional jump

	// C functions.
	opChkDepth // a=function index: fail if the call depth is exhausted
	opCall     // a=function index, b=arg count
	opRet      // a=1 when a return value is on the stack
	opCallData // a=function index: data-function subroutine (no frame)
	opRetData  // return from data-function subroutine
	opZeroL    // a=frame-relative off, b=size: zero frame storage (VarDecl)

	// Reactive layer.
	opBranchIn // a=internal signal index, b=else target
	opEmit     // a=emit meta index, b=1 when a value is on the stack
	opEnd      // a=next state index (-1 none), b=1 when terminal, imm=tree nodes visited
	opError    // a=message index: fail the reaction
)

var opNames = [...]string{
	opNop: "nop", opPushG: "pushg", opPushL: "pushl", opPushImm: "pushi",
	opIndex: "index", opField: "field", opUnary: "unary", opIncDec: "incdec",
	opBinary: "binary", opConvert: "conv", opAssign: "assign",
	opAssignOp: "assignop", opDrop: "drop", opJump: "jump",
	opJumpFalse: "jfalse", opJumpTrue: "jtrue", opTick: "tick",
	opStoreTag: "storetag", opCaseEq: "caseeq", opChkDepth: "chkdepth",
	opCall: "call", opRet: "ret",
	opCallData: "calldata", opRetData: "retdata", opZeroL: "zerol",
	opBranchIn: "brin", opEmit: "emit", opEnd: "end", opError: "error",
}

// Unary sub-ops for opUnary.
const (
	uNeg int32 = iota
	uNot
	uTilde
)

// instr is one fixed-size instruction. cost is its charge in work
// units (about one machine instruction each), added to the reaction's
// total every time the instruction executes; it fills the padding
// after op, so an instr stays 24 bytes.
type instr struct {
	op   op
	cost int32
	a, b int32
	imm  uint64
}

// ref is a value reference: a typed view into the arena (off >= 0) or
// an immediate (off < 0) whose payload holds the normalized semantic
// bits — integers sign/zero-extended per type, floats as Float64bits.
type ref struct {
	typ  int32
	off  int32
	bits uint64
}

// ---------------------------------------------------------------------------
// Scalar access (through cval's kernel)

// val returns a scalar ref in the kernel's normalized form: immediates
// carry it, views load it from the arena with their type's layout.
func (m *Machine) val(r ref) uint64 {
	if r.off < 0 {
		return r.bits
	}
	return m.load(r)
}

func (m *Machine) load(r ref) uint64 {
	t := &m.p.types[r.typ]
	return t.layout().Load(m.arena[r.off : r.off+t.size])
}

// toFloat mirrors cval.Value.Float: floats decode, everything else
// converts its integer value.
func (m *Machine) toFloat(r ref) float64 {
	if m.p.types[r.typ].kind == kFloat {
		return math.Float64frombits(m.val(r))
	}
	return float64(int64(m.val(r)))
}

// truth mirrors cval.Value.Bool: any byte set. Normalized immediates
// preserve the equivalence (payload non-zero iff stored bytes would
// be).
func (m *Machine) truth(r ref) bool {
	if r.off < 0 {
		return r.bits != 0
	}
	t := &m.p.types[r.typ]
	for _, b := range m.arena[r.off : r.off+t.size] {
		if b != 0 {
			return true
		}
	}
	return false
}

// imm builds an immediate of type ti from a value in normalized form,
// truncating an integer to the type's width and rounding a float
// (mirrors cval.FromBits followed by Bits).
func (p *Program) imm(ti int32, bits uint64) ref {
	return ref{typ: ti, off: -1, bits: p.types[ti].layout().Norm(bits)}
}

// store writes a value in normalized form into the slot of type t at
// off.
func (m *Machine) store(t *typ, off int32, bits uint64) {
	t.layout().Store(m.arena[off:off+t.size], bits)
}

// ---------------------------------------------------------------------------
// Conversion (mirrors cval.Convert / cval.Value.Assign)

func arithmeticKind(k vkind) bool {
	switch k {
	case kBool, kInt, kUint, kFloat:
		return true
	}
	return false
}

// convertVal mirrors cval.Convert. Identical types pass through;
// arithmetic conversions produce immediates; an integer-array source
// reinterprets its leading bytes (the Figure 2 idiom).
func (m *Machine) convertVal(ti int32, src ref) (ref, error) {
	if src.typ == ti {
		return src, nil
	}
	p := m.p
	t := &p.types[ti]
	st := &p.types[src.typ]
	switch {
	case t.kind == kFloat && arithmeticKind(st.kind):
		return p.imm(ti, math.Float64bits(m.toFloat(src))), nil
	case intKind(t.kind) && st.kind == kFloat:
		return p.imm(ti, uint64(int64(math.Float64frombits(m.val(src))))), nil
	case intKind(t.kind) && intKind(st.kind):
		if t.kind == kBool {
			return ref{typ: ti, off: -1, bits: uint64(b2i(m.truth(src)))}, nil
		}
		return p.imm(ti, m.val(src)), nil
	}
	if st.kind == kArray && intKind(t.kind) && st.elem >= 0 && intKind(p.types[st.elem].kind) {
		// The leading bytes, right-aligned in the target (the Figure 2
		// idiom).
		if src.off < 0 {
			return ref{}, fmt.Errorf("internal: immediate array value")
		}
		return ref{typ: ti, off: -1, bits: t.layout().Load(m.arena[src.off : src.off+min(t.size, st.size)])}, nil
	}
	return ref{}, fmt.Errorf("cannot convert %s to %s", st.ct, t.ct)
}

// intKind reports integer-like kinds (mirrors ctypes.IsInteger: bool,
// char, int, enum).
func intKind(k vkind) bool { return k == kBool || k == kInt || k == kUint }

// convertStore mirrors cval.Value.Assign: identical types copy bytes,
// arithmetic pairs convert, everything else errors.
func (m *Machine) convertStore(ti, off int32, src ref) error {
	p := m.p
	t := &p.types[ti]
	if src.typ == ti {
		if src.off < 0 {
			m.store(t, off, src.bits)
		} else {
			copy(m.arena[off:off+t.size], m.arena[src.off:src.off+t.size])
		}
		return nil
	}
	st := &p.types[src.typ]
	if arithmeticKind(t.kind) && arithmeticKind(st.kind) {
		v, err := m.convertVal(ti, src)
		if err != nil {
			return err
		}
		m.store(t, off, v.bits)
		return nil
	}
	return fmt.Errorf("cannot assign %s to %s", st.ct, t.ct)
}

// ---------------------------------------------------------------------------
// Binary arithmetic

// promoteIdx mirrors ctypes.Promote over interned type indices (enums
// are interned as int up front).
func (p *Program) promoteIdx(ti int32) int32 {
	t := &p.types[ti]
	switch t.kind {
	case kBool:
		return p.tInt
	case kInt, kUint:
		if t.size < 4 {
			return p.tInt
		}
	}
	return ti
}

// promoteForIdx mirrors dataexec.promoteFor.
func (p *Program) promoteForIdx(ti int32) int32 {
	if arithmeticKind(p.types[ti].kind) {
		return p.promoteIdx(ti)
	}
	return p.tInt
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// execBinary applies a binary operator through cval's kernel (as
// dataexec.arith does): array operands first reinterpret as the other
// side's promoted type, each operand enters in the space its interned
// descriptor records, and the result becomes an immediate of its
// space's type.
func (m *Machine) execBinary(opk token.Kind, x, y ref) (ref, error) {
	p := m.p
	if p.types[x.typ].kind == kArray {
		conv, err := m.convertVal(p.promoteForIdx(y.typ), x)
		if err != nil {
			return ref{}, err
		}
		x = conv
	}
	if p.types[y.typ].kind == kArray {
		conv, err := m.convertVal(p.promoteForIdx(x.typ), y)
		if err != nil {
			return ref{}, err
		}
		y = conv
	}
	bits, _, sp, err := cval.Binary(opk, m.val(x), p.types[x.typ].sp, m.val(y), p.types[y.typ].sp)
	if err != nil {
		return ref{}, err
	}
	return ref{typ: p.spaceTyp[sp], off: -1, bits: bits}, nil
}

// ---------------------------------------------------------------------------
// The interpreter loop

// run executes bytecode from pc until the reaction ends (opEnd) or an
// instruction fails. It owns the operand stack for the whole reaction,
// across C calls: each call context's operands nest above the
// caller's.
func (m *Machine) run(pc int32, extPresent []bool, out []cval.Value) (bool, error) {
	p := m.p
	code := p.code
	stack := m.stack
	sp := 0
	units := 0
	nIn := int32(len(p.ins))
	for {
		in := &code[pc]
		units += int(in.cost)
		switch in.op {
		case opNop:
			pc++

		case opPushG:
			stack[sp] = ref{typ: in.b, off: in.a}
			sp++
			pc++

		case opPushL:
			stack[sp] = ref{typ: in.b, off: m.base + in.a}
			sp++
			pc++

		case opPushImm:
			stack[sp] = ref{typ: in.b, off: -1, bits: in.imm}
			sp++
			pc++

		case opIndex:
			idx := int64(m.val(stack[sp-1]))
			arr := stack[sp-2]
			sp--
			t := &p.types[arr.typ]
			if t.kind != kArray {
				return false, fmt.Errorf("index on non-array %s", t.ct)
			}
			if idx < 0 || idx >= int64(t.alen) {
				return false, fmt.Errorf("index %d out of range [0,%d)", idx, t.alen)
			}
			et := &p.types[t.elem]
			stack[sp-1] = ref{typ: t.elem, off: arr.off + int32(idx)*et.size}
			pc++

		case opField:
			s := stack[sp-1]
			t := &p.types[s.typ]
			if t.kind != kStruct {
				return false, fmt.Errorf("field access on non-struct %s", t.ct)
			}
			name := p.names[in.a]
			found := false
			for i := range t.fields {
				if t.fields[i].name == name {
					stack[sp-1] = ref{typ: t.fields[i].typ, off: s.off + t.fields[i].off}
					found = true
					break
				}
			}
			if !found {
				return false, fmt.Errorf("no field %q in %s", name, t.ct)
			}
			pc++

		case opUnary:
			x := stack[sp-1]
			t := &p.types[x.typ]
			switch in.a {
			case uNeg:
				if t.kind == kFloat {
					stack[sp-1] = p.imm(x.typ, math.Float64bits(-math.Float64frombits(m.val(x))))
				} else {
					stack[sp-1] = p.imm(p.promoteIdx(x.typ), -m.val(x))
				}
			case uNot:
				stack[sp-1] = ref{typ: p.tInt, off: -1, bits: uint64(b2i(!m.truth(x)))}
			case uTilde:
				if t.kind == kBool {
					stack[sp-1] = ref{typ: p.tBool, off: -1, bits: uint64(b2i(!m.truth(x)))}
				} else if t.kind == kFloat {
					return false, fmt.Errorf("operator ~ not defined on %s", t.ct)
				} else {
					stack[sp-1] = p.imm(p.promoteIdx(x.typ), ^m.val(x))
				}
			}
			pc++

		case opIncDec:
			// An integer step on the slot's bytes, a float's included
			// (mirrors dataexec's SetInt(Int()+delta)).
			dst := stack[sp-1]
			t := &p.types[dst.typ]
			b := m.arena[dst.off : dst.off+t.size]
			raw := cval.Layout{Size: int(t.size), Signed: t.kind == kInt}
			old := ref{typ: dst.typ, off: -1, bits: m.val(dst)}
			raw.Store(b, raw.Load(b)+uint64(int64(in.a)))
			if in.b == 1 {
				stack[sp-1] = old
			} else {
				stack[sp-1] = ref{typ: dst.typ, off: -1, bits: m.val(dst)}
			}
			pc++

		case opBinary:
			res, err := m.execBinary(token.Kind(in.a), stack[sp-2], stack[sp-1])
			if err != nil {
				return false, err
			}
			sp--
			stack[sp-1] = res
			pc++

		case opConvert:
			res, err := m.convertVal(in.a, stack[sp-1])
			if err != nil {
				return false, err
			}
			stack[sp-1] = res
			pc++

		case opAssign:
			src := stack[sp-1]
			dst := stack[sp-2]
			sp--
			if err := m.convertStore(dst.typ, dst.off, src); err != nil {
				return false, err
			}
			pc++

		case opAssignOp:
			src := stack[sp-1]
			dst := stack[sp-2]
			sp--
			res, err := m.execBinary(token.Kind(in.a), dst, src)
			if err != nil {
				return false, err
			}
			if err := m.convertStore(dst.typ, dst.off, res); err != nil {
				return false, err
			}
			pc++

		case opDrop:
			sp--
			pc++

		case opJump:
			pc = in.a

		case opJumpFalse:
			sp--
			if !m.truth(stack[sp]) {
				pc = in.a
			} else {
				pc++
			}

		case opJumpTrue:
			sp--
			if m.truth(stack[sp]) {
				pc = in.a
			} else {
				pc++
			}

		case opTick:
			m.steps++
			if m.steps > maxSteps {
				return false, fmt.Errorf("data execution exceeded %d steps (runaway loop?)", maxSteps)
			}
			pc++

		case opStoreTag:
			sp--
			m.tags[in.a] = int64(m.val(stack[sp]))
			pc++

		case opCaseEq:
			if m.tags[in.a] == int64(in.imm) {
				pc = in.b
			} else {
				pc++
			}

		case opChkDepth:
			// Before argument evaluation (mirrors dataexec's frame
			// check at call entry, ahead of any argument side effect).
			if len(m.calls) >= maxCallDepth {
				return false, fmt.Errorf("call depth limit exceeded in %q", p.funcs[in.a].name)
			}
			pc++

		case opCall:
			fn := &p.funcs[in.a]
			if len(m.calls) >= maxCallDepth {
				return false, fmt.Errorf("call depth limit exceeded in %q", fn.name)
			}
			newBase := m.top
			if int(newBase)+int(fn.frameSize) > len(m.arena) {
				return false, fmt.Errorf("frame overflow calling %q", fn.name)
			}
			nargs := int(in.b)
			for i := range fn.params {
				pm := &fn.params[i]
				if err := m.convertStore(pm.typ, newBase+pm.off, stack[sp-nargs+i]); err != nil {
					return false, fmt.Errorf("argument %d of %q: %w", i+1, fn.name, err)
				}
			}
			sp -= nargs
			m.calls = append(m.calls, callFrame{retPC: pc + 1, base: m.base, top: m.top, fn: in.a})
			m.base = newBase
			m.top = newBase + fn.frameSize
			pc = fn.entry

		case opRet:
			fr := m.calls[len(m.calls)-1]
			m.calls = m.calls[:len(m.calls)-1]
			fn := &p.funcs[fr.fn]
			if in.a == 1 {
				// Materialize the value before the frame dies: scalars
				// become immediates, aggregates copy into the function's
				// static return slot.
				v := stack[sp-1]
				if v.off >= 0 {
					t := &p.types[v.typ]
					if t.kind == kArray || t.kind == kStruct {
						if fn.retSlot < 0 {
							return false, fmt.Errorf("internal: aggregate return without slot in %q", fn.name)
						}
						copy(m.arena[fn.retSlot:fn.retSlot+t.size], m.arena[v.off:v.off+t.size])
						stack[sp-1] = ref{typ: v.typ, off: fn.retSlot}
					} else {
						stack[sp-1] = ref{typ: v.typ, off: -1, bits: m.val(v)}
					}
				}
			} else {
				// No value: zero of the declared return type (mirrors
				// cval.New(fi.Ret) for a fall-through return).
				t := &p.types[fn.ret]
				if t.kind == kArray || t.kind == kStruct {
					for i := fn.retSlot; i < fn.retSlot+t.size; i++ {
						m.arena[i] = 0
					}
					stack[sp] = ref{typ: fn.ret, off: fn.retSlot}
				} else {
					stack[sp] = ref{typ: fn.ret, off: -1}
				}
				sp++
			}
			m.base, m.top = fr.base, fr.top
			pc = fr.retPC

		case opCallData:
			fn := &p.funcs[in.a]
			if len(m.calls) >= maxCallDepth {
				return false, fmt.Errorf("call depth limit exceeded in %q", fn.name)
			}
			m.calls = append(m.calls, callFrame{retPC: pc + 1, base: m.base, top: m.top, fn: in.a})
			pc = fn.entry

		case opRetData:
			fr := m.calls[len(m.calls)-1]
			m.calls = m.calls[:len(m.calls)-1]
			m.base, m.top = fr.base, fr.top
			pc = fr.retPC

		case opZeroL:
			off := m.base + in.a
			for i := off; i < off+in.b; i++ {
				m.arena[i] = 0
			}
			pc++

		case opBranchIn:
			if m.present[in.a] {
				pc++
			} else {
				pc = in.b
			}

		case opEmit:
			em := &p.emits[in.a]
			if in.b == 1 {
				sp--
				if err := m.convertStore(em.valTyp, em.valOff, stack[sp]); err != nil {
					return false, fmt.Errorf("emit %s: %w", em.name, err)
				}
			}
			m.present[em.sig] = true
			if em.outSlot >= 0 {
				extPresent[nIn+em.outSlot] = true
				if em.valOff >= 0 {
					// Copy the emitted value into the caller's slot buffer
					// when it has storage of the right size (Ports hands
					// out correctly sized buffers; foreign buffers are
					// skipped, and the map adapter clones from the arena).
					if b := out[em.outSlot].B; len(b) == int(em.valSize) {
						copy(b, m.arena[em.valOff:em.valOff+em.valSize])
					}
				}
			}
			pc++

		case opEnd:
			m.units, m.depth = units, int(in.imm)
			if in.b == 1 {
				// Terminal: set done but keep the state index so
				// snapshots of a finished machine stay well-formed.
				m.done = true
			} else {
				m.state = in.a // -1 when the leaf has no successor
			}
			return m.done, nil

		case opError:
			return false, fmt.Errorf("%s", p.errs[in.a])

		default:
			return false, fmt.Errorf("internal: bad opcode %d at pc %d", in.op, pc)
		}
	}
}
