// Package lexer implements the scanner for ECL source text. It turns a
// preprocessed source file into a stream of tokens, reporting malformed
// literals and stray characters through a source.DiagList.
package lexer

import (
	"unicode/utf8"

	"repro/internal/source"
	"repro/internal/token"
)

// Lexer scans one file. Create with New, then call Next until EOF.
type Lexer struct {
	file  *source.File
	src   string
	off   int
	diags *source.DiagList
}

// New returns a lexer over the contents of file, reporting errors to diags.
func New(file *source.File, diags *source.DiagList) *Lexer {
	return &Lexer{file: file, src: file.Content, diags: diags}
}

// Pos converts a byte offset into a source.Pos within the lexed file.
func (l *Lexer) Pos(offset int) source.Pos { return l.file.Pos(offset) }

func (l *Lexer) errorf(off int, format string, args ...interface{}) {
	l.diags.Errorf(l.file.Pos(off), format, args...)
}

func (l *Lexer) peek() byte {
	if l.off < len(l.src) {
		return l.src[l.off]
	}
	return 0
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n < len(l.src) {
		return l.src[l.off+n]
	}
	return 0
}

func isLetter(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v':
			l.off++
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.off++
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.off
			l.off += 2
			closed := false
			for l.off+1 < len(l.src) {
				if l.src[l.off] == '*' && l.src[l.off+1] == '/' {
					l.off += 2
					closed = true
					break
				}
				l.off++
			}
			if !closed {
				l.off = len(l.src)
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token. At end of input it returns an EOF token
// forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	start := l.off
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Offset: start}
	}
	c := l.src[l.off]

	switch {
	case isLetter(c):
		for l.off < len(l.src) && (isLetter(l.src[l.off]) || isDigit(l.src[l.off])) {
			l.off++
		}
		lit := l.src[start:l.off]
		kind := token.Lookup(lit)
		return token.Token{Kind: kind, Lit: lit, Offset: start}

	case isDigit(c), c == '.' && isDigit(l.peekAt(1)):
		return l.scanNumber(start)

	case c == '\'':
		return l.scanChar(start)

	case c == '"':
		return l.scanString(start)
	}

	// Operators and punctuation.
	l.off++
	two := func(next byte, ifTwo, ifOne token.Kind) token.Token {
		if l.peek() == next {
			l.off++
			return token.Token{Kind: ifTwo, Offset: start}
		}
		return token.Token{Kind: ifOne, Offset: start}
	}

	switch c {
	case '+':
		if l.peek() == '+' {
			l.off++
			return token.Token{Kind: token.INC, Offset: start}
		}
		return two('=', token.ADD_ASSIGN, token.ADD)
	case '-':
		switch l.peek() {
		case '-':
			l.off++
			return token.Token{Kind: token.DEC, Offset: start}
		case '>':
			l.off++
			return token.Token{Kind: token.ARROW, Offset: start}
		}
		return two('=', token.SUB_ASSIGN, token.SUB)
	case '*':
		return two('=', token.MUL_ASSIGN, token.MUL)
	case '/':
		return two('=', token.QUO_ASSIGN, token.QUO)
	case '%':
		return two('=', token.REM_ASSIGN, token.REM)
	case '&':
		if l.peek() == '&' {
			l.off++
			return token.Token{Kind: token.LAND, Offset: start}
		}
		return two('=', token.AND_ASSIGN, token.AND)
	case '|':
		if l.peek() == '|' {
			l.off++
			return token.Token{Kind: token.LOR, Offset: start}
		}
		return two('=', token.OR_ASSIGN, token.OR)
	case '^':
		return two('=', token.XOR_ASSIGN, token.XOR)
	case '<':
		if l.peek() == '<' {
			l.off++
			return two('=', token.SHL_ASSIGN, token.SHL)
		}
		return two('=', token.LEQ, token.LSS)
	case '>':
		if l.peek() == '>' {
			l.off++
			return two('=', token.SHR_ASSIGN, token.SHR)
		}
		return two('=', token.GEQ, token.GTR)
	case '=':
		return two('=', token.EQL, token.ASSIGN)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '~':
		return token.Token{Kind: token.TILDE, Offset: start}
	case '(':
		return token.Token{Kind: token.LPAREN, Offset: start}
	case ')':
		return token.Token{Kind: token.RPAREN, Offset: start}
	case '{':
		return token.Token{Kind: token.LBRACE, Offset: start}
	case '}':
		return token.Token{Kind: token.RBRACE, Offset: start}
	case '[':
		return token.Token{Kind: token.LBRACK, Offset: start}
	case ']':
		return token.Token{Kind: token.RBRACK, Offset: start}
	case ',':
		return token.Token{Kind: token.COMMA, Offset: start}
	case ';':
		return token.Token{Kind: token.SEMI, Offset: start}
	case ':':
		return token.Token{Kind: token.COLON, Offset: start}
	case '.':
		return token.Token{Kind: token.DOT, Offset: start}
	case '?':
		return token.Token{Kind: token.QUESTION, Offset: start}
	}

	l.errorf(start, "illegal character %q", string(rune(c)))
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Offset: start}
}

func (l *Lexer) scanNumber(start int) token.Token {
	kind := token.INT
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.off += 2
		n := 0
		for l.off < len(l.src) && isHexDigit(l.src[l.off]) {
			l.off++
			n++
		}
		if n == 0 {
			l.errorf(start, "malformed hex literal")
		}
	} else {
		for l.off < len(l.src) && isDigit(l.src[l.off]) {
			l.off++
		}
		if l.peek() == '.' {
			kind = token.FLOAT
			l.off++
			for l.off < len(l.src) && isDigit(l.src[l.off]) {
				l.off++
			}
		}
		if c := l.peek(); c == 'e' || c == 'E' {
			kind = token.FLOAT
			l.off++
			if c := l.peek(); c == '+' || c == '-' {
				l.off++
			}
			n := 0
			for l.off < len(l.src) && isDigit(l.src[l.off]) {
				l.off++
				n++
			}
			if n == 0 {
				l.errorf(start, "malformed exponent in float literal")
			}
		}
	}
	// Swallow C suffixes (u, l, f) without recording them.
	for {
		switch l.peek() {
		case 'u', 'U', 'l', 'L', 'f', 'F':
			l.off++
			continue
		}
		break
	}
	return token.Token{Kind: kind, Lit: l.src[start:l.off], Offset: start}
}

func (l *Lexer) scanChar(start int) token.Token {
	l.off++ // opening quote
	for l.off < len(l.src) && l.src[l.off] != '\'' && l.src[l.off] != '\n' {
		// A backslash consumes the escaped byte too — unless it is the
		// file's last byte, which would walk off past len(src).
		if l.src[l.off] == '\\' && l.off+1 < len(l.src) {
			l.off++
		}
		l.off++
	}
	if l.peek() != '\'' {
		l.errorf(start, "unterminated character literal")
		return token.Token{Kind: token.ILLEGAL, Lit: l.src[start:l.off], Offset: start}
	}
	l.off++
	l.checkUTF8(start, "character")
	return token.Token{Kind: token.CHAR, Lit: l.src[start:l.off], Offset: start}
}

func (l *Lexer) scanString(start int) token.Token {
	l.off++ // opening quote
	for l.off < len(l.src) && l.src[l.off] != '"' && l.src[l.off] != '\n' {
		// A backslash consumes the escaped byte too — unless it is the
		// file's last byte, which would walk off past len(src).
		if l.src[l.off] == '\\' && l.off+1 < len(l.src) {
			l.off++
		}
		l.off++
	}
	if l.peek() != '"' {
		l.errorf(start, "unterminated string literal")
		return token.Token{Kind: token.ILLEGAL, Lit: l.src[start:l.off], Offset: start}
	}
	l.off++
	l.checkUTF8(start, "string")
	return token.Token{Kind: token.STRING, Lit: l.src[start:l.off], Offset: start}
}

// checkUTF8 rejects a char or string literal src[start:l.off] that is
// not valid UTF-8. Its text is the value, and snapshots and keys
// carry that text as a JSON string, which has no way to hold a raw
// byte that is not UTF-8: two literals differing only in such a byte
// would read as one. The value can be written as an integer constant.
func (l *Lexer) checkUTF8(start int, what string) {
	lit := l.src[start:l.off]
	for i := 0; i < len(lit); {
		r, size := utf8.DecodeRuneInString(lit[i:])
		if r == utf8.RuneError && size == 1 {
			l.errorf(start, "%s literal holds the byte 0x%02x, which is not valid UTF-8; write the value as an integer constant such as 0x%02x",
				what, lit[i], lit[i])
			return
		}
		i += size
	}
}

// All scans the whole file and returns every token up to and including
// the terminating EOF token. It is a convenience for tests and tools.
func All(file *source.File, diags *source.DiagList) []token.Token {
	l := New(file, diags)
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}
