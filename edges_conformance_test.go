package ecl

import (
	"encoding/hex"
	"fmt"
	"os"
	osexec "os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/driver"
	"repro/internal/exec"
	"repro/internal/token"
)

// edgeRow is one row of the edge-value table (see its header for the
// format).
type edgeRow struct {
	line int
	op   token.Kind
	x, y cval.Value // y is invalid in a unary row
	want string     // the result's value, or "trap"
}

const edgeTablePath = "internal/cval/testdata/edges.txt"

var edgeScalarTypes = map[string]ctypes.Type{
	"int": ctypes.Int, "uint": ctypes.UInt, "bool": ctypes.Bool,
	"float": ctypes.Float, "double": ctypes.Double,
}

// edgeParse reads text as a value of the table's type typ, or of t when
// t is given (a result).
func edgeParse(typ, text string, t ctypes.Type) (cval.Value, error) {
	if t == nil {
		t = edgeScalarTypes[typ]
	}
	if t == nil {
		var n int
		if _, err := fmt.Sscanf(typ, "uchar[%d]", &n); err != nil {
			return cval.Value{}, fmt.Errorf("unknown type %q", typ)
		}
		b, err := hex.DecodeString(strings.TrimPrefix(text, "0x"))
		if err != nil || len(b) != n {
			return cval.Value{}, fmt.Errorf("bad %s value %q", typ, text)
		}
		return cval.Value{Type: &ctypes.ArrayType{Elem: ctypes.UChar, Len: n}, B: b}, nil
	}
	if t.Kind() == ctypes.KindFloat {
		f, err := strconv.ParseFloat(text, 64)
		return cval.FromFloat(t, f), err
	}
	n, err := strconv.ParseInt(text, 0, 64)
	return cval.FromInt(t, n), err
}

func readEdgeRows(t *testing.T) []edgeRow {
	t.Helper()
	data, err := os.ReadFile(edgeTablePath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []edgeRow
	for i, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		r := edgeRow{line: i + 1, want: f[len(f)-1]}
		for k := token.ADD; k <= token.GEQ; k++ {
			if k.String() == f[0] {
				r.op = k
			}
		}
		if len(f) != 6 || r.op == 0 {
			t.Fatalf("%s:%d: malformed row %q", edgeTablePath, r.line, line)
		}
		if r.x, err = edgeParse(f[1], f[2], nil); err == nil && f[3] != "-" {
			r.y, err = edgeParse(f[3], f[4], nil)
		}
		if err != nil {
			t.Fatalf("%s:%d: %v", edgeTablePath, r.line, err)
		}
		rows = append(rows, r)
	}
	return rows
}

// resultType is the static type of the row's expression.
func (r edgeRow) resultType() ctypes.Type {
	switch {
	case r.op == token.TILDE:
		return ctypes.Bool
	case token.EQL <= r.op && r.op <= token.GEQ:
		return ctypes.Int
	}
	return ctypes.UsualArithmetic(r.x.Type, r.y.Type)
}

// inputs is the instant that selects row i with its operands.
func (r edgeRow) inputs(i int) map[string]cval.Value {
	in := map[string]cval.Value{"sel": cval.FromInt(ctypes.Int, int64(i)), fmt.Sprintf("x%d", i): r.x}
	if r.y.IsValid() {
		in[fmt.Sprintf("y%d", i)] = r.y
	}
	return in
}

// edgeModule renders the table as one module: row i's operands arrive
// on inputs xi and yi, and the instant that carries sel == i emits
// row i's expression on output ri.
func edgeModule(rows []edgeRow) string {
	var typedefs, ports, body strings.Builder
	declared := map[int]bool{}
	spell := func(t ctypes.Type) string {
		at, ok := t.(*ctypes.ArrayType)
		if !ok {
			return t.String()
		}
		if !declared[at.Len] {
			declared[at.Len] = true
			fmt.Fprintf(&typedefs, "typedef unsigned char bytes%d[%d];\n", at.Len, at.Len)
		}
		return fmt.Sprintf("bytes%d", at.Len)
	}
	ports.WriteString("input int sel")
	for i, r := range rows {
		expr := fmt.Sprintf("%s x%d", r.op, i)
		fmt.Fprintf(&ports, ",\n              input %s x%d", spell(r.x.Type), i)
		if r.y.IsValid() {
			expr = fmt.Sprintf("x%d %s y%d", i, r.op, i)
			fmt.Fprintf(&ports, ", input %s y%d", spell(r.y.Type), i)
		}
		fmt.Fprintf(&ports, ", output %s r%d", spell(r.resultType()), i)
		if i > 0 {
			body.WriteString("        else ")
		} else {
			body.WriteString("        ")
		}
		fmt.Fprintf(&body, "if (sel == %d) emit_v (r%d, %s);\n", i, i, expr)
	}
	return fmt.Sprintf("%s\nmodule edges (%s)\n{\n    while (1) {\n        await (sel);\n%s    }\n}\n",
		typedefs.String(), ports.String(), body.String())
}

// TestConformanceEdgeValues runs the edge-value table as one ECL module.
// The interpreter must give each row's value, every conformant backend
// and the generated Go must reproduce its trace, and each trap row must
// fail its step on the interpreter and every backend. Generated Go is
// not asked to trap: it panics on a zero divisor.
func TestConformanceEdgeValues(t *testing.T) {
	rows := readEdgeRows(t)
	res := driver.New(0).BuildOne(driver.Request{
		Path: "edges.ecl", Source: edgeModule(rows), Module: "edges",
		Targets: []driver.Target{driver.TargetGo}, GoPackage: "main",
	})
	if res.Failed() {
		t.Fatalf("build: %v", res.Err)
	}

	instants := []map[string]cval.Value{{}} // boot: the await arms
	var valueRows []int
	for i, r := range rows {
		if r.want != "trap" {
			instants = append(instants, r.inputs(i))
			valueRows = append(valueRows, i)
		}
	}
	want := recordTrace(t, "interp", res.Design, instants)
	for k, i := range valueRows {
		r := rows[i]
		exp, err := edgeParse("", r.want, r.resultType())
		if err != nil {
			t.Fatalf("%s:%d: %v", edgeTablePath, r.line, err)
		}
		name := fmt.Sprintf("r%d", i)
		if got := want.Events[k+1].Outputs[name]; got != exec.EncodeValue(exp) {
			t.Errorf("%s:%d: interp: %s %s %s = %s, want %s (%s)", edgeTablePath, r.line,
				r.x, r.op, r.y, got, r.want, exec.EncodeValue(exp))
		}
	}

	for _, backend := range exec.ConformantBackends() {
		if backend != "interp" {
			if err := exec.Diff(want, recordTrace(t, backend, res.Design, instants)); err != nil {
				t.Errorf("interp vs %s: %v", backend, err)
			}
		}
		for i, r := range rows {
			if r.want != "trap" {
				continue
			}
			m, err := exec.Open(backend, res.Design)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Step(nil); err != nil {
				t.Fatalf("%s: boot: %v", backend, err)
			}
			if _, err := m.Step(r.inputs(i)); err == nil {
				t.Errorf("%s:%d: %s: %s %s %s did not fail the step", edgeTablePath, r.line, backend, r.x, r.op, r.y)
			}
		}
	}

	if testing.Short() {
		return
	}
	if goTool, err := osexec.LookPath("go"); err == nil {
		got := runGeneratedGo(t, goTool, "edges", res.Artifacts[driver.TargetGo], want)
		if err := exec.Diff(want, got); err != nil {
			t.Errorf("interp vs generated Go: %v", err)
		}
	}
}
