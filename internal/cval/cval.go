// Package cval implements the runtime value model for ECL's C data: every
// value is a typed view over raw bytes laid out exactly as on the
// 32-bit big-endian MIPS R3000 target. Struct fields and array elements
// are sub-views sharing the parent's storage, so C union aliasing works
// byte-for-byte — Figure 2 of the paper reads the CRC bytes through
// packet_t's "cooked" view that Figure 1 wrote through the "raw" view.
package cval

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ctypes"
)

// Value is a typed view over storage. The zero Value is invalid; build
// values with New, FromInt, FromFloat, or FromBool.
type Value struct {
	Type ctypes.Type
	B    []byte // len(B) == Type.Size(); scalars big-endian
}

// New allocates a zeroed value of type t.
func New(t ctypes.Type) Value {
	return Value{Type: t, B: make([]byte, t.Size())}
}

// IsValid reports whether the value has a type and storage.
func (v Value) IsValid() bool { return v.Type != nil && len(v.B) == v.Type.Size() }

// Clone returns a deep copy with fresh storage.
func (v Value) Clone() Value {
	b := make([]byte, len(v.B))
	copy(b, v.B)
	return Value{Type: v.Type, B: b}
}

// FromInt builds a value of integer-like type t holding x (truncated to
// t's width).
func FromInt(t ctypes.Type, x int64) Value {
	v := New(t)
	v.SetInt(x)
	return v
}

// FromFloat builds a float/double value.
func FromFloat(t ctypes.Type, x float64) Value {
	v := New(t)
	v.SetFloat(x)
	return v
}

// FromBool builds a bool value.
func FromBool(b bool) Value {
	v := New(ctypes.Bool)
	if b {
		v.B[0] = 1
	}
	return v
}

// ---------------------------------------------------------------------------
// Scalar access

// Int reads an integer-like scalar (int, char, bool, enum), applying
// sign extension for signed types.
func (v Value) Int() int64 {
	return int64(Layout{Size: len(v.B), Signed: signedType(v.Type)}.Load(v.B))
}

// Uint reads the scalar as unsigned.
func (v Value) Uint() uint64 { return Layout{Size: len(v.B)}.Load(v.B) }

// SetInt stores x truncated to the value's width, big-endian.
func (v Value) SetInt(x int64) { Layout{}.Store(v.B, uint64(x)) }

// Float reads a float or double scalar.
func (v Value) Float() float64 {
	if v.Type.Kind() == ctypes.KindFloat {
		return math.Float64frombits(LayoutOf(v.Type).Load(v.B))
	}
	return float64(v.Int())
}

// SetFloat stores a float or double scalar.
func (v Value) SetFloat(x float64) {
	if v.Type.Kind() == ctypes.KindFloat {
		LayoutOf(v.Type).Store(v.B, math.Float64bits(x))
		return
	}
	v.SetInt(int64(x))
}

// Bits returns the scalar in the kernel's normalized form (see Space).
func (v Value) Bits() uint64 { return LayoutOf(v.Type).Load(v.B) }

// FromBits builds a value of scalar type t from normalized bits.
func FromBits(t ctypes.Type, bits uint64) Value {
	v := New(t)
	LayoutOf(t).Store(v.B, bits)
	return v
}

// Bool reports whether the scalar is non-zero (any byte set, which for
// scalars equals the C truth test).
func (v Value) Bool() bool {
	for _, b := range v.B {
		if b != 0 {
			return true
		}
	}
	return false
}

func signedType(t ctypes.Type) bool {
	switch t := t.(type) {
	case *ctypes.IntType:
		return !t.Unsigned
	case *ctypes.EnumType:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Aggregate access (views share storage)

// Field returns a view of the named struct/union member. Mutating the
// view mutates the parent.
func (v Value) Field(name string) (Value, error) {
	st, ok := v.Type.(*ctypes.StructType)
	if !ok {
		return Value{}, fmt.Errorf("field access on non-struct %s", v.Type)
	}
	f := st.Field(name)
	if f == nil {
		return Value{}, fmt.Errorf("no field %q in %s", name, st)
	}
	return Value{Type: f.Type, B: v.B[f.Offset : f.Offset+f.Type.Size()]}, nil
}

// Index returns a view of the i-th array element.
func (v Value) Index(i int) (Value, error) {
	at, ok := v.Type.(*ctypes.ArrayType)
	if !ok {
		return Value{}, fmt.Errorf("index on non-array %s", v.Type)
	}
	if i < 0 || i >= at.Len {
		return Value{}, fmt.Errorf("index %d out of range [0,%d)", i, at.Len)
	}
	sz := at.Elem.Size()
	return Value{Type: at.Elem, B: v.B[i*sz : (i+1)*sz]}, nil
}

// ---------------------------------------------------------------------------
// Assignment and conversion

// Assign stores src into v's storage, converting scalars when the
// types differ; aggregate types must be identical (bitwise copy).
func (v Value) Assign(src Value) error {
	if ctypes.Identical(v.Type, src.Type) {
		copy(v.B, src.B)
		return nil
	}
	if ctypes.IsArithmetic(v.Type) && ctypes.IsArithmetic(src.Type) {
		converted, err := Convert(src, v.Type)
		if err != nil {
			return err
		}
		copy(v.B, converted.B)
		return nil
	}
	return fmt.Errorf("cannot assign %s to %s", src.Type, v.Type)
}

// Convert returns src as type to, applying C conversion rules. An
// integer-array source reinterprets its leading bytes as the target
// integer (the paper's Figure 2 cast idiom, big-endian).
func Convert(src Value, to ctypes.Type) (Value, error) {
	if ctypes.Identical(src.Type, to) {
		return src.Clone(), nil
	}
	switch {
	case to.Kind() == ctypes.KindFloat && ctypes.IsArithmetic(src.Type):
		out := New(to)
		if src.Type.Kind() == ctypes.KindFloat {
			out.SetFloat(src.Float())
		} else {
			out.SetFloat(float64(src.Int()))
		}
		return out, nil
	case ctypes.IsInteger(to) && src.Type.Kind() == ctypes.KindFloat:
		out := New(to)
		out.SetInt(int64(src.Float()))
		return out, nil
	case ctypes.IsInteger(to) && ctypes.IsInteger(src.Type):
		out := New(to)
		if to == ctypes.Bool {
			if src.Bool() {
				out.B[0] = 1
			}
			return out, nil
		}
		out.SetInt(src.Int())
		return out, nil
	}
	if at, ok := src.Type.(*ctypes.ArrayType); ok && ctypes.IsInteger(to) && ctypes.IsInteger(at.Elem) {
		out := New(to)
		n := len(out.B)
		if len(src.B) < n {
			n = len(src.B)
		}
		// Leading bytes, right-aligned in the target (big-endian read).
		copy(out.B[len(out.B)-n:], src.B[:n])
		return out, nil
	}
	return Value{}, fmt.Errorf("cannot convert %s to %s", src.Type, to)
}

// Equal reports bitwise equality of two values of identical type.
func (v Value) Equal(o Value) bool {
	if !ctypes.Identical(v.Type, o.Type) {
		return false
	}
	if len(v.B) != len(o.B) {
		return false
	}
	for i := range v.B {
		if v.B[i] != o.B[i] {
			return false
		}
	}
	return true
}

// String formats the value for debugging: scalars by value, aggregates
// as hex bytes.
func (v Value) String() string {
	if !v.IsValid() {
		return "<invalid>"
	}
	switch v.Type.Kind() {
	case ctypes.KindBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	case ctypes.KindInt, ctypes.KindEnum:
		if ctypes.IsUnsigned(v.Type) {
			return fmt.Sprintf("%d", v.Uint())
		}
		return fmt.Sprintf("%d", v.Int())
	case ctypes.KindFloat:
		return fmt.Sprintf("%g", v.Float())
	}
	var b strings.Builder
	b.WriteString("0x")
	for _, x := range v.B {
		fmt.Fprintf(&b, "%02x", x)
	}
	return b.String()
}
