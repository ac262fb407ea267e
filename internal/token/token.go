// Package token defines the lexical tokens of the ECL language: the C
// token set extended with ECL's reactive keywords (module, signal,
// emit, await, present, abort, and friends).
package token

import "strconv"

// Kind identifies a lexical token class.
type Kind int

// The token kinds. Layout mirrors go/token: literals, operators,
// keywords, each in a contiguous range.
const (
	ILLEGAL Kind = iota
	EOF
	COMMENT

	literalBeg
	IDENT  // assemble
	INT    // 12345, 0x1F, 017
	FLOAT  // 1.25, 1e9
	CHAR   // 'a'
	STRING // "abc"
	literalEnd

	operatorBeg
	ADD // +
	SUB // -
	MUL // *
	QUO // /
	REM // %

	AND     // &
	OR      // |
	XOR     // ^
	SHL     // <<
	SHR     // >>
	AND_NOT // &^ (unused in C, kept for symmetry)

	LAND // &&
	LOR  // ||
	NOT  // !
	TILDE

	ASSIGN     // =
	ADD_ASSIGN // +=
	SUB_ASSIGN // -=
	MUL_ASSIGN // *=
	QUO_ASSIGN // /=
	REM_ASSIGN // %=
	AND_ASSIGN // &=
	OR_ASSIGN  // |=
	XOR_ASSIGN // ^=
	SHL_ASSIGN // <<=
	SHR_ASSIGN // >>=

	EQL // ==
	NEQ // !=
	LSS // <
	GTR // >
	LEQ // <=
	GEQ // >=

	INC // ++
	DEC // --

	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	COMMA    // ,
	SEMI     // ;
	COLON    // :
	DOT      // .
	ARROW    // ->
	QUESTION // ?
	operatorEnd

	keywordBeg
	// C keywords (the subset ECL supports).
	BREAK
	CASE
	CONST
	CONTINUE
	DEFAULT
	DO
	ELSE
	ENUM
	FOR
	IF
	RETURN
	SIZEOF
	STATIC
	STRUCT
	SWITCH
	TYPEDEF
	UNION
	WHILE

	// Type keywords.
	VOID
	CHAR_KW
	SHORT
	INT_KW
	LONG
	FLOAT_KW
	DOUBLE
	SIGNED
	UNSIGNED
	BOOL_KW

	// ECL reactive keywords.
	MODULE
	SIGNAL
	INPUT
	OUTPUT
	PURE
	EMIT
	EMIT_V
	AWAIT
	HALT
	PRESENT
	ABORT
	WEAK_ABORT
	SUSPEND
	HANDLE
	PAR
	keywordEnd
)

var names = map[Kind]string{
	ILLEGAL: "ILLEGAL",
	EOF:     "EOF",
	COMMENT: "COMMENT",

	IDENT:  "IDENT",
	INT:    "INT",
	FLOAT:  "FLOAT",
	CHAR:   "CHAR",
	STRING: "STRING",

	ADD:     "+",
	SUB:     "-",
	MUL:     "*",
	QUO:     "/",
	REM:     "%",
	AND:     "&",
	OR:      "|",
	XOR:     "^",
	SHL:     "<<",
	SHR:     ">>",
	AND_NOT: "&^",
	LAND:    "&&",
	LOR:     "||",
	NOT:     "!",
	TILDE:   "~",

	ASSIGN:     "=",
	ADD_ASSIGN: "+=",
	SUB_ASSIGN: "-=",
	MUL_ASSIGN: "*=",
	QUO_ASSIGN: "/=",
	REM_ASSIGN: "%=",
	AND_ASSIGN: "&=",
	OR_ASSIGN:  "|=",
	XOR_ASSIGN: "^=",
	SHL_ASSIGN: "<<=",
	SHR_ASSIGN: ">>=",

	EQL: "==",
	NEQ: "!=",
	LSS: "<",
	GTR: ">",
	LEQ: "<=",
	GEQ: ">=",

	INC: "++",
	DEC: "--",

	LPAREN:   "(",
	RPAREN:   ")",
	LBRACE:   "{",
	RBRACE:   "}",
	LBRACK:   "[",
	RBRACK:   "]",
	COMMA:    ",",
	SEMI:     ";",
	COLON:    ":",
	DOT:      ".",
	ARROW:    "->",
	QUESTION: "?",

	BREAK:    "break",
	CASE:     "case",
	CONST:    "const",
	CONTINUE: "continue",
	DEFAULT:  "default",
	DO:       "do",
	ELSE:     "else",
	ENUM:     "enum",
	FOR:      "for",
	IF:       "if",
	RETURN:   "return",
	SIZEOF:   "sizeof",
	STATIC:   "static",
	STRUCT:   "struct",
	SWITCH:   "switch",
	TYPEDEF:  "typedef",
	UNION:    "union",
	WHILE:    "while",

	VOID:     "void",
	CHAR_KW:  "char",
	SHORT:    "short",
	INT_KW:   "int",
	LONG:     "long",
	FLOAT_KW: "float",
	DOUBLE:   "double",
	SIGNED:   "signed",
	UNSIGNED: "unsigned",
	BOOL_KW:  "bool",

	MODULE:     "module",
	SIGNAL:     "signal",
	INPUT:      "input",
	OUTPUT:     "output",
	PURE:       "pure",
	EMIT:       "emit",
	EMIT_V:     "emit_v",
	AWAIT:      "await",
	HALT:       "halt",
	PRESENT:    "present",
	ABORT:      "abort",
	WEAK_ABORT: "weak_abort",
	SUSPEND:    "suspend",
	HANDLE:     "handle",
	PAR:        "par",
}

// String returns the literal text of operators and keywords and the
// upper-case class name of other tokens.
func (k Kind) String() string {
	if s, ok := names[k]; ok {
		return s
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// IsLiteral reports whether the kind is an identifier or basic literal.
func (k Kind) IsLiteral() bool { return literalBeg < k && k < literalEnd }

// IsOperator reports whether the kind is an operator or delimiter.
func (k Kind) IsOperator() bool { return operatorBeg < k && k < operatorEnd }

// IsKeyword reports whether the kind is a C or ECL keyword.
func (k Kind) IsKeyword() bool { return keywordBeg < k && k < keywordEnd }

// IsReactiveKeyword reports whether the kind is one of ECL's added
// reactive keywords (as opposed to a plain C keyword).
func (k Kind) IsReactiveKeyword() bool { return MODULE <= k && k <= PAR }

// IsTypeKeyword reports whether the kind starts a C type specifier.
func (k Kind) IsTypeKeyword() bool {
	switch k {
	case VOID, CHAR_KW, SHORT, INT_KW, LONG, FLOAT_KW, DOUBLE, SIGNED, UNSIGNED, BOOL_KW, STRUCT, UNION, ENUM:
		return true
	}
	return false
}

// IsAssignOp reports whether the kind is an assignment operator.
func (k Kind) IsAssignOp() bool { return ASSIGN <= k && k <= SHR_ASSIGN }

// AssignBinOp maps a compound assignment operator to the binary
// operator it applies: += to +, and so on through >>= to >>. ok is
// false for every other kind, plain = included. The two runs of
// constants are declared in the same order.
func (k Kind) AssignBinOp() (op Kind, ok bool) {
	if ADD_ASSIGN <= k && k <= SHR_ASSIGN {
		return ADD + (k - ADD_ASSIGN), true
	}
	return ILLEGAL, false
}

var keywords map[string]Kind

func init() {
	keywords = make(map[string]Kind)
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		keywords[names[k]] = k
	}
}

// Lookup maps an identifier spelling to its keyword kind, or IDENT if
// it is not a keyword.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// Precedence returns the binary-operator precedence of k, following C
// (higher binds tighter), or 0 if k is not a binary operator.
func (k Kind) Precedence() int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case OR:
		return 3
	case XOR:
		return 4
	case AND:
		return 5
	case EQL, NEQ:
		return 6
	case LSS, GTR, LEQ, GEQ:
		return 7
	case SHL, SHR:
		return 8
	case ADD, SUB:
		return 9
	case MUL, QUO, REM:
		return 10
	}
	return 0
}

// Token is a lexed token: its kind, literal text, and offset within the
// (preprocessed) source.
type Token struct {
	Kind   Kind
	Lit    string
	Offset int
}

// String renders the token for debugging.
func (t Token) String() string {
	if t.Kind.IsLiteral() {
		return t.Kind.String() + "(" + t.Lit + ")"
	}
	return t.Kind.String()
}
