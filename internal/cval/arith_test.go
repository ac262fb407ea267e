package cval

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ctypes"
	"repro/internal/token"
)

// edgeCase is one row of testdata/edges.txt.
type edgeCase struct {
	line int
	op   token.Kind
	x, y Value // y is invalid in a unary row
	want string
}

var edgeTypes = map[string]ctypes.Type{
	"int": ctypes.Int, "uint": ctypes.UInt, "bool": ctypes.Bool,
	"float": ctypes.Float, "double": ctypes.Double,
}

func edgeValue(typ, text string) (Value, error) {
	if t, ok := edgeTypes[typ]; ok {
		if t.Kind() == ctypes.KindFloat {
			f, err := strconv.ParseFloat(text, 64)
			return FromFloat(t, f), err
		}
		n, err := strconv.ParseInt(text, 0, 64)
		return FromInt(t, n), err
	}
	var n int
	if _, err := fmt.Sscanf(typ, "uchar[%d]", &n); err != nil {
		return Value{}, fmt.Errorf("unknown type %q", typ)
	}
	b, err := hex.DecodeString(strings.TrimPrefix(text, "0x"))
	if err != nil || len(b) != n {
		return Value{}, fmt.Errorf("bad %s value %q", typ, text)
	}
	return Value{Type: &ctypes.ArrayType{Elem: ctypes.UChar, Len: n}, B: b}, nil
}

func readEdgeTable(t *testing.T) []edgeCase {
	t.Helper()
	data, err := os.ReadFile("testdata/edges.txt")
	if err != nil {
		t.Fatal(err)
	}
	var cases []edgeCase
	for i, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		c := edgeCase{line: i + 1, want: f[len(f)-1]}
		for k := token.ADD; k <= token.GEQ; k++ {
			if k.String() == f[0] {
				c.op = k
			}
		}
		if len(f) != 6 || c.op == 0 {
			t.Fatalf("edges.txt:%d: malformed row %q", c.line, line)
		}
		if c.x, err = edgeValue(f[1], f[2]); err == nil && f[3] != "-" {
			c.y, err = edgeValue(f[3], f[4])
		}
		if err != nil {
			t.Fatalf("edges.txt:%d: %v", c.line, err)
		}
		cases = append(cases, c)
	}
	return cases
}

// TestEdgeTable checks the binary rows of the edge-value table against
// the kernel; the unary rows run end to end in the conformance tests.
func TestEdgeTable(t *testing.T) {
	for _, c := range readEdgeTable(t) {
		if !c.y.IsValid() {
			continue
		}
		x, y := c.x, c.y
		var err error
		if x.Type.Kind() == ctypes.KindArray {
			x, err = Convert(x, ctypes.Promote(y.Type))
		}
		if y.Type.Kind() == ctypes.KindArray {
			y, err = Convert(y, ctypes.Promote(x.Type))
		}
		if err != nil {
			t.Fatalf("edges.txt:%d: %v", c.line, err)
		}
		bits, _, sp, err := Binary(c.op, x.Bits(), SpaceOf(x.Type), y.Bits(), SpaceOf(y.Type))
		got := "trap"
		switch {
		case err == nil:
			got = FromBits(sp.Type(), bits).String()
		case sp >= Float32 && !errors.Is(err, ErrFloatDivByZero), sp < Float32 && !errors.Is(err, ErrDivByZero):
			t.Errorf("edges.txt:%d: unexpected error %v", c.line, err)
		}
		if got != c.want {
			t.Errorf("edges.txt:%d: %s %s %s = %s, want %s", c.line, c.x, c.op, c.y, got, c.want)
		}
	}
}

// TestSpaceIsUsualArithmetic: two operands meet in the larger of their
// spaces exactly where ctypes.UsualArithmetic puts them.
func TestSpaceIsUsualArithmetic(t *testing.T) {
	types := []ctypes.Type{
		ctypes.Bool, ctypes.Char, ctypes.SChar, ctypes.UChar, ctypes.Short, ctypes.UShort,
		ctypes.Int, ctypes.UInt, ctypes.Long, ctypes.ULong, ctypes.Float, ctypes.Double,
		&ctypes.EnumType{},
	}
	for _, a := range types {
		for _, b := range types {
			got := max(SpaceOf(a), SpaceOf(b)).Type()
			if want := ctypes.UsualArithmetic(a, b); got != want {
				t.Errorf("%s with %s: space type %s, want %s", a, b, got, want)
			}
		}
	}
}

// TestLayoutNormIsStoreLoad: Norm gives what storing then loading the
// bytes gives, for every scalar layout.
func TestLayoutNormIsStoreLoad(t *testing.T) {
	layouts := []Layout{
		{Size: 1}, {Size: 1, Signed: true}, {Size: 2}, {Size: 2, Signed: true},
		{Size: 4}, {Size: 4, Signed: true}, {Size: 4, Float: true}, {Size: 8, Float: true},
	}
	rng := rand.New(rand.NewSource(1))
	for _, l := range layouts {
		for i := 0; i < 1000; i++ {
			bits := rng.Uint64()
			if l.Float {
				bits = math.Float64bits(rng.NormFloat64() * 1e6)
			}
			b := make([]byte, l.Size)
			l.Store(b, bits)
			if got, want := l.Norm(bits), l.Load(b); got != want {
				t.Fatalf("%+v: Norm(%#x) = %#x, Load(Store) = %#x", l, bits, got, want)
			}
		}
	}
}
