package lexer

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/source"
	"repro/internal/token"
)

func lexAll(t *testing.T, src string) ([]token.Token, *source.DiagList) {
	t.Helper()
	var diags source.DiagList
	f := source.NewFile("test.ecl", src)
	return All(f, &diags), &diags
}

func kinds(toks []token.Token) []token.Kind {
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func TestKeywordsAndIdents(t *testing.T) {
	toks, diags := lexAll(t, "module m await emit_v xyz awaitx int bool")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %s", diags)
	}
	want := []token.Kind{
		token.MODULE, token.IDENT, token.AWAIT, token.EMIT_V,
		token.IDENT, token.IDENT, token.INT_KW, token.BOOL_KW, token.EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	cases := map[string]token.Kind{
		"+": token.ADD, "-": token.SUB, "*": token.MUL, "/": token.QUO,
		"%": token.REM, "&": token.AND, "|": token.OR, "^": token.XOR,
		"<<": token.SHL, ">>": token.SHR, "&&": token.LAND, "||": token.LOR,
		"!": token.NOT, "~": token.TILDE, "=": token.ASSIGN,
		"+=": token.ADD_ASSIGN, "-=": token.SUB_ASSIGN, "*=": token.MUL_ASSIGN,
		"/=": token.QUO_ASSIGN, "%=": token.REM_ASSIGN, "&=": token.AND_ASSIGN,
		"|=": token.OR_ASSIGN, "^=": token.XOR_ASSIGN, "<<=": token.SHL_ASSIGN,
		">>=": token.SHR_ASSIGN, "==": token.EQL, "!=": token.NEQ,
		"<": token.LSS, ">": token.GTR, "<=": token.LEQ, ">=": token.GEQ,
		"++": token.INC, "--": token.DEC, "(": token.LPAREN, ")": token.RPAREN,
		"{": token.LBRACE, "}": token.RBRACE, "[": token.LBRACK, "]": token.RBRACK,
		",": token.COMMA, ";": token.SEMI, ":": token.COLON, ".": token.DOT,
		"->": token.ARROW, "?": token.QUESTION,
	}
	for src, want := range cases {
		toks, diags := lexAll(t, src)
		if diags.HasErrors() {
			t.Errorf("%q: unexpected errors: %s", src, diags)
			continue
		}
		if toks[0].Kind != want {
			t.Errorf("%q: got %v, want %v", src, toks[0].Kind, want)
		}
		if len(toks) != 2 {
			t.Errorf("%q: got %d tokens, want 2", src, len(toks))
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
	}{
		{"0", token.INT},
		{"12345", token.INT},
		{"0x1F", token.INT},
		{"017", token.INT},
		{"42u", token.INT},
		{"42UL", token.INT},
		{"1.25", token.FLOAT},
		{"1e9", token.FLOAT},
		{"3.5e-2", token.FLOAT},
		{".5", token.FLOAT},
		{"2.5f", token.FLOAT},
	}
	for _, c := range cases {
		toks, diags := lexAll(t, c.src)
		if diags.HasErrors() {
			t.Errorf("%q: unexpected errors: %s", c.src, diags)
			continue
		}
		if toks[0].Kind != c.kind {
			t.Errorf("%q: got %v, want %v", c.src, toks[0].Kind, c.kind)
		}
		if toks[0].Lit != c.src {
			t.Errorf("%q: got literal %q", c.src, toks[0].Lit)
		}
	}
}

func TestMalformedNumbers(t *testing.T) {
	for _, src := range []string{"0x", "1e", "1e+"} {
		_, diags := lexAll(t, src)
		if !diags.HasErrors() {
			t.Errorf("%q: expected an error", src)
		}
	}
}

func TestCharAndString(t *testing.T) {
	toks, diags := lexAll(t, `'a' '\n' "hi" "a\"b"`)
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %s", diags)
	}
	want := []token.Kind{token.CHAR, token.CHAR, token.STRING, token.STRING, token.EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestUnterminatedLiterals(t *testing.T) {
	for _, src := range []string{`"abc`, `'a`, "/* foo"} {
		_, diags := lexAll(t, src)
		if !diags.HasErrors() {
			t.Errorf("%q: expected an error", src)
		}
	}
}

func TestComments(t *testing.T) {
	toks, diags := lexAll(t, "a // line\n b /* block\n still */ c")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %s", diags)
	}
	var names []string
	for _, tk := range toks {
		if tk.Kind == token.IDENT {
			names = append(names, tk.Lit)
		}
	}
	if strings.Join(names, " ") != "a b c" {
		t.Errorf("got idents %v", names)
	}
}

func TestIllegalChar(t *testing.T) {
	toks, diags := lexAll(t, "a @ b")
	if !diags.HasErrors() {
		t.Fatal("expected an error for '@'")
	}
	if toks[1].Kind != token.ILLEGAL {
		t.Errorf("got %v, want ILLEGAL", toks[1].Kind)
	}
}

func TestPositions(t *testing.T) {
	f := source.NewFile("t.ecl", "ab\n  cd")
	var diags source.DiagList
	toks := All(f, &diags)
	if got := f.Pos(toks[0].Offset); got.Line() != 1 || got.Column() != 1 {
		t.Errorf("ab at %d:%d, want 1:1", got.Line(), got.Column())
	}
	if got := f.Pos(toks[1].Offset); got.Line() != 2 || got.Column() != 3 {
		t.Errorf("cd at %d:%d, want 2:3", got.Line(), got.Column())
	}
}

// TestPropertyLexConcat checks that lexing token texts joined by spaces
// reproduces the same token kinds — a mini round-trip property.
func TestPropertyLexConcat(t *testing.T) {
	vocab := []string{
		"ident", "x9", "module", "await", "emit", "42", "0x1F", "1.5",
		"+", "-", "*", "/", "==", "<=", "<<", "&&", "(", ")", "{", "}",
		";", ",", "present", "abort", "par", "signal",
	}
	check := func(picks []uint8) bool {
		var words []string
		for _, p := range picks {
			words = append(words, vocab[int(p)%len(vocab)])
		}
		src := strings.Join(words, " ")
		var diags source.DiagList
		toks := All(source.NewFile("p.ecl", src), &diags)
		if diags.HasErrors() {
			return false
		}
		if len(toks) != len(words)+1 {
			return false
		}
		for i, w := range words {
			var want source.DiagList
			one := All(source.NewFile("w.ecl", w), &want)
			if one[0].Kind != toks[i].Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTrailingBackslashInLiteral is the regression test for the fuzz
// crasher "\"\\0\\": a string or char literal whose final byte is a
// backslash escape used to walk the scanner past len(src) and panic
// slicing the literal. It must lex as an unterminated-literal
// diagnostic instead.
func TestTrailingBackslashInLiteral(t *testing.T) {
	for _, src := range []string{"\"\\0\\", "'\\", "\"abc\\", "'x\\"} {
		var diags source.DiagList
		toks := All(source.NewFile("t.ecl", src), &diags)
		if len(toks) == 0 || toks[len(toks)-1].Kind != token.EOF {
			t.Fatalf("%q: lexer did not reach EOF", src)
		}
		if !diags.HasErrors() {
			t.Errorf("%q: no unterminated-literal diagnostic", src)
		}
	}
}

// TestInvalidUTF8Literal checks that a char or string literal holding
// a byte that is not valid UTF-8 is rejected at the literal, with the
// byte's integer constant as the suggested spelling, while valid
// multi-byte UTF-8 and escapes still lex cleanly.
func TestInvalidUTF8Literal(t *testing.T) {
	for _, tc := range []struct {
		src  string
		kind token.Kind
		b    byte
	}{
		{"x == '\xaf'", token.CHAR, 0xaf},
		{"x == '\xfe'", token.CHAR, 0xfe},
		{"s = \"ab\xc3\"", token.STRING, 0xc3},
	} {
		toks, diags := lexAll(t, tc.src)
		if len(diags.Diags) != 1 {
			t.Fatalf("%q: %d diagnostics, want 1: %s", tc.src, len(diags.Diags), diags)
		}
		d := diags.Diags[0]
		at := strings.IndexAny(tc.src, `'"`)
		if d.Pos.Offset != at {
			t.Errorf("%q: diagnostic at offset %d, want the literal at %d", tc.src, d.Pos.Offset, at)
		}
		if want := fmt.Sprintf("integer constant such as 0x%02x", tc.b); !strings.Contains(d.Message, want) || !strings.Contains(d.Message, "not valid UTF-8") {
			t.Errorf("%q: diagnostic %q should say the literal is not valid UTF-8 and suggest %q", tc.src, d.Message, want)
		}
		if got := kinds(toks); got[len(got)-2] != tc.kind {
			t.Errorf("%q: literal lexed as %v, want %v", tc.src, got[len(got)-2], tc.kind)
		}
	}
	if _, diags := lexAll(t, `'é' "héllo" '\xaf' '\\'`); diags.HasErrors() {
		t.Errorf("valid UTF-8 literals rejected: %s", diags)
	}
}
