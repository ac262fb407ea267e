package cval

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ctypes"
	"repro/internal/token"
)

// This file is the one definition of what C's scalar operators compute
// on the 32-bit big-endian target. Scalars pass through it in
// normalized form: an integer is its value sign- or zero-extended to
// 64 bits, a float the float64 bits of its value. Value's accessors,
// internal/dataexec, the table VM and the abstract interpreter all
// compute through it. The Go emitter prints its own operator text and
// is pinned to this kernel by the edge-value conformance table
// (testdata/edges.txt).

// Space is the value space a binary operator computes in. The
// constants are ordered by the rank of the usual arithmetic
// conversions (double > float > unsigned int > int), so two operands
// meet in the larger of their spaces.
type Space uint8

// The four spaces.
const (
	Int32 Space = iota
	Uint32
	Float32
	Float64
)

var spaceTypes = [...]ctypes.Type{Int32: ctypes.Int, Uint32: ctypes.UInt, Float32: ctypes.Float, Float64: ctypes.Double}

// SpaceOf returns the space a value of type t computes in: that of its
// promoted type, which is ctypes.UsualArithmetic of t with itself.
// Types that are not arithmetic fall in Int32, as UsualArithmetic
// places them.
func SpaceOf(t ctypes.Type) Space {
	switch ctypes.UsualArithmetic(t, t) {
	case ctypes.UInt:
		return Uint32
	case ctypes.Float:
		return Float32
	case ctypes.Double:
		return Float64
	}
	return Int32
}

// Type returns the C type of a result computed in s.
func (s Space) Type() ctypes.Type { return spaceTypes[s] }

// The traps of / and % on a zero divisor.
var (
	ErrDivByZero      = errors.New("division by zero")
	ErrFloatDivByZero = errors.New("floating division by zero")
)

// Binary applies the binary operator op to x, normalized in space sx,
// and y, normalized in sy. Both operands convert to the larger space
// and the operator computes there; integer shift counts are masked
// with &31. The result r comes back normalized, with its space: the
// common one, or Int32 for a comparison. In an integer space exact is
// the same operation's result on the converted operands in int64:
// +, -, * and / wrapped in Int32 exactly when r differs from it.
func Binary(op token.Kind, x uint64, sx Space, y uint64, sy Space) (r uint64, exact int64, sp Space, err error) {
	sp = max(sx, sy)
	if sp >= Float32 {
		a, b := toFloat(x, sx), toFloat(y, sy)
		if c, ok := compare(op, a, b); ok {
			return c, int64(c), Int32, nil
		}
		var f float64
		switch op {
		case token.ADD:
			f = a + b
		case token.SUB:
			f = a - b
		case token.MUL:
			f = a * b
		case token.QUO:
			if b == 0 {
				return 0, 0, sp, ErrFloatDivByZero
			}
			f = a / b
		default:
			return 0, 0, sp, fmt.Errorf("operator %q not defined on floats", op)
		}
		if sp == Float32 {
			f = float64(float32(f))
		}
		return math.Float64bits(f), 0, sp, nil
	}
	a, b := wrap(sp, int64(x)), wrap(sp, int64(y))
	if c, ok := compare(op, a, b); ok {
		return c, int64(c), Int32, nil
	}
	switch op {
	case token.ADD:
		exact = a + b
	case token.SUB:
		exact = a - b
	case token.MUL:
		exact = a * b
	case token.QUO, token.REM:
		if b == 0 {
			return 0, 0, sp, ErrDivByZero
		}
		if op == token.QUO {
			exact = a / b
		} else {
			exact = a % b
		}
	case token.SHL:
		exact = a << uint(b&31)
	case token.SHR:
		exact = a >> uint(b&31)
	case token.AND:
		exact = a & b
	case token.OR:
		exact = a | b
	case token.XOR:
		exact = a ^ b
	default:
		return 0, 0, sp, fmt.Errorf("unsupported operator %q", op)
	}
	return uint64(wrap(sp, exact)), exact, sp, nil
}

// wrap normalizes v to integer space sp: its low 32 bits,
// sign-extended in Int32 and zero-extended in Uint32.
func wrap(sp Space, v int64) int64 {
	if sp == Uint32 {
		return int64(uint32(v))
	}
	return int64(int32(v))
}

func toFloat(x uint64, s Space) float64 {
	if s >= Float32 {
		return math.Float64frombits(x)
	}
	return float64(int64(x))
}

// compare applies op when it is a comparison, yielding 0 or 1.
func compare[T int64 | float64](op token.Kind, a, b T) (uint64, bool) {
	var c bool
	switch op {
	case token.EQL:
		c = a == b
	case token.NEQ:
		c = a != b
	case token.LSS:
		c = a < b
	case token.GTR:
		c = a > b
	case token.LEQ:
		c = a <= b
	case token.GEQ:
		c = a >= b
	default:
		return 0, false
	}
	if c {
		return 1, true
	}
	return 0, true
}

// Layout is how a scalar sits in its big-endian bytes.
type Layout struct {
	Size   int  // width in bytes
	Float  bool // an IEEE float (4 bytes) or double (8)
	Signed bool // integer bytes sign-extend
}

// LayoutOf returns the layout of values of type t. Aggregates read as
// unsigned integers over their bytes.
func LayoutOf(t ctypes.Type) Layout {
	return Layout{Size: t.Size(), Float: t.Kind() == ctypes.KindFloat, Signed: signedType(t)}
}

// Load reads the scalar stored big-endian in b, in normalized form.
// An integer b shorter than l.Size reads as if right-aligned in a
// zeroed scalar: the Figure 2 idiom's leading bytes of a byte array.
func (l Layout) Load(b []byte) uint64 {
	var u uint64
	for _, c := range b {
		u = u<<8 | uint64(c)
	}
	switch {
	case l.Float && l.Size == 4:
		return math.Float64bits(float64(math.Float32frombits(uint32(u))))
	case l.Signed && l.Size < 8:
		s := uint(64 - 8*l.Size)
		return uint64(int64(u<<s) >> s)
	}
	return u
}

// Store writes normalized bits into b big-endian, truncating an
// integer to len(b) bytes and rounding a float to the layout's width.
func (l Layout) Store(b []byte, bits uint64) {
	if l.Float && l.Size == 4 {
		bits = uint64(math.Float32bits(float32(math.Float64frombits(bits))))
	}
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte(bits)
		bits >>= 8
	}
}

// Norm normalizes bits to the layout: what a Store then a Load would
// give, without the bytes. An integer truncates to Size bytes and
// re-extends; a float rounds through float32 when Size is 4.
func (l Layout) Norm(bits uint64) uint64 {
	switch {
	case l.Float && l.Size == 4:
		return math.Float64bits(float64(float32(math.Float64frombits(bits))))
	case l.Float || l.Size >= 8:
		return bits
	case l.Signed:
		shift := uint(64 - 8*l.Size)
		return uint64(int64(bits<<shift) >> shift)
	}
	return bits << uint(64-8*l.Size) >> uint(64-8*l.Size)
}
