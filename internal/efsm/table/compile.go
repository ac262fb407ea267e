package table

import (
	"fmt"
	"math"

	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/efsm"
	"repro/internal/kernel"
	"repro/internal/sem"
)

// The compiler linearizes an EFSM (states, decision trees, and the
// whole C data layer) into the flat bytecode of vm.go. Two invariants
// shape everything here:
//
//   - Compile never fails on user-level constructs. Anything the VM
//     cannot run compiles to an opError that fires exactly where (and
//     only when) the interpreter would have failed, so a table machine
//     always Opens and diverges from the oracle on no input.
//   - Semantics mirror internal/dataexec operation for operation (the
//     scalar operators are cval's kernel in both), including
//     evaluation order around errors (argument side effects
//     before an arity error, operand side effects before an
//     unsupported-operator error, and so on).

// funcKey identifies one compiled C function: the sem-level function
// bound through one instance binding (module variables the body touches
// resolve through the caller's binding).
type funcKey struct {
	fi *sem.FuncInfo
	b  *kernel.Binding
}

type gslot struct{ off, typ int32 }

type localSlot struct{ off, typ int32 }

// fnCtx is the compilation context of one C function body.
type fnCtx struct {
	idx     int32
	locals  map[*sem.VarInfo]localSlot
	escapes *[]int32 // break/continue without a target jump to the epilogue
}

// ectx is the expression-compilation context: the instance binding plus
// the enclosing C function (nil at reactive or data-function level).
type ectx struct {
	b  *kernel.Binding
	fn *fnCtx
	df *kernel.DataFunc
}

// sctx extends ectx with statement-level jump targets.
type sctx struct {
	cx        ectx
	brk, cont *[]int32
}

type compiler struct {
	p    *Program
	info *sem.Info

	typeCache map[ctypes.Type]int32
	tChar     int32

	globals int32
	varSlot map[*kernel.Var]gslot
	sigSlot map[*kernel.Signal]gslot
	sigIdx  map[*kernel.Signal]int32
	nextSig int32
	outSlot map[*kernel.Signal]int32
	emitIdx map[*kernel.Signal]int32

	stateIdx map[*efsm.State]int32

	funcIdx map[funcKey]int32
	dfIdx   map[*kernel.DataFunc]int32
	pendF   []funcKey
	pendD   []*kernel.DataFunc

	errIdx  map[string]int32
	nameIdx map[string]int32
	tags    int32

	// Static operand-stack accounting: depth is a conservative bound on
	// the operand count at the current pc within the current region
	// (state tree or function body); regMax folds the maxima.
	depth  int32
	regMax int32
}

// Compile flattens an EFSM into an immutable table Program.
func Compile(em *efsm.Machine) (*Program, error) {
	if em == nil || em.Mod == nil || em.Info == nil {
		return nil, fmt.Errorf("table: nil machine")
	}
	if len(em.States) == 0 || em.Initial == nil {
		return nil, fmt.Errorf("table: %s: machine has no states", em.Name)
	}
	p := &Program{name: em.Name}
	c := &compiler{
		p:         p,
		info:      em.Info,
		typeCache: map[ctypes.Type]int32{},
		varSlot:   map[*kernel.Var]gslot{},
		sigSlot:   map[*kernel.Signal]gslot{},
		sigIdx:    map[*kernel.Signal]int32{},
		outSlot:   map[*kernel.Signal]int32{},
		emitIdx:   map[*kernel.Signal]int32{},
		stateIdx:  map[*efsm.State]int32{},
		funcIdx:   map[funcKey]int32{},
		dfIdx:     map[*kernel.DataFunc]int32{},
		errIdx:    map[string]int32{},
		nameIdx:   map[string]int32{},
	}
	p.tVoid, _ = c.intern(ctypes.Void)
	p.tBool, _ = c.intern(ctypes.Bool)
	for sp := range p.spaceTyp {
		p.spaceTyp[sp], _ = c.intern(cval.Space(sp).Type())
	}
	p.tInt = p.spaceTyp[cval.Int32]
	c.tChar, _ = c.intern(ctypes.Char)

	// Arena layout: module variables, then valued-signal stores.
	for _, kv := range em.Mod.Vars {
		ti, ok := c.intern(kv.Type)
		if !ok {
			continue // nil type: uses fail at the use site
		}
		t := &p.types[ti]
		off := c.allocGlobal(t.size, int32(kv.Type.Align()))
		c.varSlot[kv] = gslot{off, ti}
		p.vars = append(p.vars, slotMeta{name: kv.Name, off: off, size: t.size, typ: ti})
	}
	for _, s := range em.Mod.Signals() {
		c.presenceOf(s)
		if s.Pure || s.Type == nil {
			continue
		}
		ti, ok := c.intern(s.Type)
		if !ok {
			continue
		}
		t := &p.types[ti]
		off := c.allocGlobal(t.size, int32(s.Type.Align()))
		c.sigSlot[s] = gslot{off, ti}
		p.sigs = append(p.sigs, slotMeta{name: s.Name, off: off, size: t.size, typ: ti})
	}

	// Interface ports, in module declaration order (= slot order).
	for _, s := range em.Inputs {
		p.ins = append(p.ins, c.portFor(s))
	}
	for j, s := range em.Outputs {
		c.outSlot[s] = int32(j)
		p.outs = append(p.outs, c.portFor(s))
	}

	// States: indices first (trees reference successors), then trees.
	p.stateEntry = make([]int32, len(em.States))
	p.stateID = make([]int, len(em.States))
	for i, st := range em.States {
		c.stateIdx[st] = int32(i)
		p.stateID[i] = st.ID
	}
	init, ok := c.stateIdx[em.Initial]
	if !ok {
		return nil, fmt.Errorf("table: %s: initial state not in machine", em.Name)
	}
	p.initial = init
	for i, st := range em.States {
		p.stateEntry[i] = c.here()
		c.depth = 0
		c.tree(st.Root, st, 1)
	}

	// C functions and data-function subroutines, to a fixpoint (bodies
	// discover further callees).
	for len(c.pendF) > 0 || len(c.pendD) > 0 {
		if n := len(c.pendF); n > 0 {
			k := c.pendF[n-1]
			c.pendF = c.pendF[:n-1]
			c.compileFunc(c.funcIdx[k], k)
			continue
		}
		n := len(c.pendD)
		df := c.pendD[n-1]
		c.pendD = c.pendD[:n-1]
		c.compileDataFunc(c.dfIdx[df], df)
	}

	p.globalsSize = c.globals
	var maxFrame int32
	for i := range p.funcs {
		if p.funcs[i].frameSize > maxFrame {
			maxFrame = p.funcs[i].frameSize
		}
	}
	p.arenaSize = p.globalsSize + int32(maxCallDepth+1)*maxFrame
	p.maxStack = int32(maxCallDepth+2)*c.regMax + 8
	p.numTags = c.tags
	p.numSigs = c.nextSig
	return p, nil
}

func (c *compiler) portFor(s *kernel.Signal) portMeta {
	pm := portMeta{
		name:   s.Name,
		pure:   s.Pure || s.Type == nil,
		sig:    c.presenceOf(s),
		valOff: -1,
	}
	if gs, ok := c.sigSlot[s]; ok {
		pm.valOff, pm.valTyp, pm.ct = gs.off, gs.typ, s.Type
	}
	return pm
}

func (c *compiler) presenceOf(s *kernel.Signal) int32 {
	if i, ok := c.sigIdx[s]; ok {
		return i
	}
	i := c.nextSig
	c.nextSig++
	c.sigIdx[s] = i
	return i
}

func alignUp(o, a int32) int32 {
	if a <= 0 {
		a = 1
	}
	if r := o % a; r != 0 {
		o += a - r
	}
	return o
}

func (c *compiler) allocGlobal(size, align int32) int32 {
	c.globals = alignUp(c.globals, align)
	off := c.globals
	c.globals += size
	return off
}

// ---------------------------------------------------------------------------
// Type interning

func (c *compiler) intern(ct ctypes.Type) (int32, bool) {
	if ct == nil {
		return 0, false
	}
	if ct.Kind() == ctypes.KindEnum {
		// Enums behave as int everywhere at runtime; ctypes.Identical
		// keeps distinct enums apart, but every conversion between them
		// is a 4-byte copy, so one descriptor serves all.
		return c.p.tInt, true
	}
	if i, ok := c.typeCache[ct]; ok {
		return i, true
	}
	for i := range c.p.types {
		if c.p.types[i].ct != nil && ctypes.Identical(c.p.types[i].ct, ct) {
			c.typeCache[ct] = int32(i)
			return int32(i), true
		}
	}
	t := typ{elem: -1, size: int32(ct.Size()), sp: cval.SpaceOf(ct), ct: ct}
	switch ct.Kind() {
	case ctypes.KindVoid:
		t.kind = kVoid
	case ctypes.KindBool:
		t.kind = kBool
	case ctypes.KindInt:
		if ctypes.IsUnsigned(ct) {
			t.kind = kUint
		} else {
			t.kind = kInt
		}
	case ctypes.KindFloat:
		t.kind = kFloat
	case ctypes.KindPointer:
		t.kind = kOpaque
	case ctypes.KindArray:
		at := ct.(*ctypes.ArrayType)
		ei, ok := c.intern(at.Elem)
		if !ok {
			return 0, false
		}
		t.kind, t.elem, t.alen = kArray, ei, int32(at.Len)
	case ctypes.KindStruct:
		st := ct.(*ctypes.StructType)
		t.kind = kStruct
		for i := range st.Fields {
			f := &st.Fields[i]
			fi, ok := c.intern(f.Type)
			if !ok {
				return 0, false
			}
			t.fields = append(t.fields, fieldDesc{name: f.Name, off: int32(f.Offset), typ: fi})
		}
	default:
		return 0, false
	}
	idx := int32(len(c.p.types))
	c.p.types = append(c.p.types, t)
	c.typeCache[ct] = idx
	return idx, true
}

// ---------------------------------------------------------------------------
// Emission helpers

func (c *compiler) here() int32 { return int32(len(c.p.code)) }

func (c *compiler) emit(o op, a, b int32) int32 {
	return c.emitI(instr{op: o, a: a, b: b})
}

func (c *compiler) emitImm(o op, a, b int32, imm uint64) int32 {
	return c.emitI(instr{op: o, a: a, b: b, imm: imm})
}

func (c *compiler) emitI(in instr) int32 {
	switch in.op {
	case opPushG, opPushL, opPushImm:
		c.adj(1)
	case opIndex, opBinary, opAssign, opAssignOp, opDrop,
		opJumpFalse, opJumpTrue, opStoreTag:
		c.adj(-1)
	case opCall:
		c.adj(1 - in.b)
	case opRet:
		if in.a == 0 {
			c.adj(1)
		}
	case opEmit:
		if in.b == 1 {
			c.adj(-1)
		}
	}
	pc := int32(len(c.p.code))
	c.p.code = append(c.p.code, in)
	return pc
}

func (c *compiler) adj(d int32) {
	c.depth += d
	if c.depth < 0 {
		c.depth = 0
	}
	if c.depth > c.regMax {
		c.regMax = c.depth
	}
}

// charge prices the instruction at pc: every execution adds units to
// the reaction's work. A unit approximates one machine instruction; the
// cost model (internal/cost) scales units to cycles.
func (c *compiler) charge(pc, units int32) { c.p.code[pc].cost += units }

func (c *compiler) patchA(at, target int32) { c.p.code[at].a = target }
func (c *compiler) patchB(at, target int32) { c.p.code[at].b = target }

func (c *compiler) pushInt(ti int32, v int64) int32 {
	return c.emitImm(opPushImm, 0, ti, c.p.imm(ti, uint64(v)).bits)
}

func (c *compiler) pushFloat(ti int32, f float64) int32 {
	return c.emitImm(opPushImm, 0, ti, c.p.imm(ti, math.Float64bits(f)).bits)
}

// emitErr emits a deferred runtime error at the current pc.
func (c *compiler) emitErr(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	idx, ok := c.errIdx[msg]
	if !ok {
		idx = int32(len(c.p.errs))
		c.p.errs = append(c.p.errs, msg)
		c.errIdx[msg] = idx
	}
	c.emit(opError, idx, 0)
}

// exprErr is emitErr in expression position: accounting records the
// value the expression would have produced (opError halts before any
// consumer runs, so the slot never materializes).
func (c *compiler) exprErr(format string, args ...any) {
	c.emitErr(format, args...)
	c.adj(1)
}

func (c *compiler) name(n string) int32 {
	idx, ok := c.nameIdx[n]
	if !ok {
		idx = int32(len(c.p.names))
		c.p.names = append(c.p.names, n)
		c.nameIdx[n] = idx
	}
	return idx
}
