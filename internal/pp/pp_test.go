package pp

import (
	"strings"
	"testing"

	"repro/internal/source"
)

func expand(t *testing.T, src string, files map[string]string) (string, *source.DiagList) {
	t.Helper()
	var diags source.DiagList
	var r Resolver
	if files != nil {
		r = MapResolver(files)
	}
	p := New(&diags, r)
	out := p.Expand(source.NewFile("main.ecl", src))
	return out.Content, &diags
}

func TestDefineSimple(t *testing.T) {
	out, diags := expand(t, "#define N 10\nint x = N;", nil)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	if !strings.Contains(out, "int x = 10;") {
		t.Errorf("output %q", out)
	}
}

func TestDefineChained(t *testing.T) {
	src := `#define HDRSIZE 6
#define DATASIZE 56
#define CRCSIZE 2
#define PKTSIZE HDRSIZE+DATASIZE+CRCSIZE
int n = PKTSIZE;`
	out, diags := expand(t, src, nil)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	if !strings.Contains(out, "int n = 6+56+2;") {
		t.Errorf("output %q", out)
	}
}

func TestDefineWordBoundary(t *testing.T) {
	out, diags := expand(t, "#define N 10\nint Nx = N + xN;", nil)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	if !strings.Contains(out, "int Nx = 10 + xN;") {
		t.Errorf("macro replaced inside identifier: %q", out)
	}
}

func TestStringsAndCommentsUntouched(t *testing.T) {
	out, diags := expand(t, "#define N 10\nchar *s = \"N\"; // N here\nint x = N;", nil)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	if !strings.Contains(out, `"N"`) {
		t.Errorf("macro replaced in string: %q", out)
	}
	if !strings.Contains(out, "// N here") {
		t.Errorf("macro replaced in comment: %q", out)
	}
	if !strings.Contains(out, "int x = 10;") {
		t.Errorf("macro not replaced in code: %q", out)
	}
}

func TestUndef(t *testing.T) {
	out, diags := expand(t, "#define N 10\n#undef N\nint x = N;", nil)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	if !strings.Contains(out, "int x = N;") {
		t.Errorf("output %q", out)
	}
}

func TestIfdef(t *testing.T) {
	src := `#define FEATURE 1
#ifdef FEATURE
int a;
#else
int b;
#endif
#ifndef FEATURE
int c;
#else
int d;
#endif`
	out, diags := expand(t, src, nil)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	for _, want := range []string{"int a;", "int d;"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
	for _, banned := range []string{"int b;", "int c;"} {
		if strings.Contains(out, banned) {
			t.Errorf("unexpected %q in %q", banned, out)
		}
	}
}

func TestNestedIfdef(t *testing.T) {
	src := `#define A 1
#ifdef A
#ifdef B
int ab;
#else
int a_only;
#endif
#endif`
	out, diags := expand(t, src, nil)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	if !strings.Contains(out, "int a_only;") || strings.Contains(out, "int ab;") {
		t.Errorf("output %q", out)
	}
}

func TestUnterminatedIfdef(t *testing.T) {
	_, diags := expand(t, "#ifdef X\nint a;", nil)
	if !diags.HasErrors() {
		t.Error("expected error for unterminated #ifdef")
	}
}

func TestElseWithoutIf(t *testing.T) {
	_, diags := expand(t, "#else\n", nil)
	if !diags.HasErrors() {
		t.Error("expected error for stray #else")
	}
}

func TestInclude(t *testing.T) {
	files := map[string]string{"defs.h": "#define W 3\ntypedef int word;\n"}
	out, diags := expand(t, "#include \"defs.h\"\nword x = W;", files)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	if !strings.Contains(out, "typedef int word;") {
		t.Errorf("include body missing: %q", out)
	}
	if !strings.Contains(out, "word x = 3;") {
		t.Errorf("macro from include not applied: %q", out)
	}
}

func TestIncludeMissing(t *testing.T) {
	_, diags := expand(t, "#include \"nope.h\"\n", map[string]string{})
	if !diags.HasErrors() {
		t.Error("expected error for missing include")
	}
}

func TestIncludeCycle(t *testing.T) {
	files := map[string]string{"a.h": "#include \"a.h\"\n"}
	_, diags := expand(t, "#include \"a.h\"\n", files)
	if !diags.HasErrors() {
		t.Error("expected error for include cycle")
	}
}

func TestIncludeNoResolver(t *testing.T) {
	_, diags := expand(t, "#include <stdio.h>\n", nil)
	if !diags.HasErrors() {
		t.Error("expected error without resolver")
	}
}

func TestLineContinuation(t *testing.T) {
	out, diags := expand(t, "#define LONGM 1 + \\\n 2\nint x = LONGM;", nil)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	normalized := strings.Join(strings.Fields(out), " ")
	if !strings.Contains(normalized, "int x = 1 + 2;") {
		t.Errorf("output %q", out)
	}
}

func TestFunctionLikeMacroRejected(t *testing.T) {
	_, diags := expand(t, "#define F(x) ((x)+1)\n", nil)
	if !diags.HasErrors() {
		t.Error("expected error for function-like macro")
	}
}

func TestPredefine(t *testing.T) {
	var diags source.DiagList
	p := New(&diags, nil)
	p.Define("MODE", "2")
	out := p.Expand(source.NewFile("m.ecl", "int m = MODE;"))
	if !strings.Contains(out.Content, "int m = 2;") {
		t.Errorf("output %q", out.Content)
	}
	if got := p.Macros()["MODE"]; got != "2" {
		t.Errorf("Macros()[MODE] = %q", got)
	}
}

func TestRecursiveMacroTerminates(t *testing.T) {
	// Self-referential macro must not hang; bounded rounds leave text.
	out, _ := expand(t, "#define X X+1\nint v = X;", nil)
	if !strings.Contains(out, "int v =") {
		t.Errorf("output %q", out)
	}
}

// TestSelfMultiplyingMacroBounded: a macro naming itself twice doubles
// the line every replacement round; the expansion stops at a bound
// with an error instead of exhausting memory.
func TestSelfMultiplyingMacroBounded(t *testing.T) {
	out, diags := expand(t, "#define X (X X X X X X X X)\nint v = X;", nil)
	if !diags.HasErrors() || !strings.Contains(diags.String(), "macro expansion") {
		t.Errorf("want a macro-expansion error, got %q", diags.String())
	}
	if len(out) > maxExpansion {
		t.Errorf("output is %d bytes", len(out))
	}
}

func TestLineStructurePreserved(t *testing.T) {
	src := "#define N 1\nint a = N;\nint b;\n"
	out, diags := expand(t, src, nil)
	if diags.HasErrors() {
		t.Fatalf("errors: %s", diags)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 3 || strings.TrimSpace(lines[1]) != "int a = 1;" {
		t.Errorf("line structure changed: %q", out)
	}
}
