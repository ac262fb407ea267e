package token

import "testing"

func TestLookup(t *testing.T) {
	cases := map[string]Kind{
		"module": MODULE, "await": AWAIT, "emit_v": EMIT_V, "par": PAR,
		"while": WHILE, "int": INT_KW, "bool": BOOL_KW, "frob": IDENT,
		"weak_abort": WEAK_ABORT, "suspend": SUSPEND, "handle": HANDLE,
	}
	for s, want := range cases {
		if got := Lookup(s); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestPredicates(t *testing.T) {
	if !IDENT.IsLiteral() || !INT.IsLiteral() || ADD.IsLiteral() {
		t.Error("IsLiteral wrong")
	}
	if !ADD.IsOperator() || !SEMI.IsOperator() || MODULE.IsOperator() {
		t.Error("IsOperator wrong")
	}
	if !MODULE.IsKeyword() || !WHILE.IsKeyword() || IDENT.IsKeyword() {
		t.Error("IsKeyword wrong")
	}
	if !AWAIT.IsReactiveKeyword() || WHILE.IsReactiveKeyword() {
		t.Error("IsReactiveKeyword wrong")
	}
	if !INT_KW.IsTypeKeyword() || !STRUCT.IsTypeKeyword() || AWAIT.IsTypeKeyword() {
		t.Error("IsTypeKeyword wrong")
	}
	if !ASSIGN.IsAssignOp() || !SHR_ASSIGN.IsAssignOp() || EQL.IsAssignOp() {
		t.Error("IsAssignOp wrong")
	}
}

func TestPrecedenceOrdering(t *testing.T) {
	// C precedence: || < && < | < ^ < & < == < < < << < + < *
	order := []Kind{LOR, LAND, OR, XOR, AND, EQL, LSS, SHL, ADD, MUL}
	for i := 1; i < len(order); i++ {
		if order[i-1].Precedence() >= order[i].Precedence() {
			t.Errorf("%v should bind looser than %v", order[i-1], order[i])
		}
	}
	if SEMI.Precedence() != 0 {
		t.Error("non-operator precedence must be 0")
	}
}

func TestTokenString(t *testing.T) {
	if (Token{Kind: IDENT, Lit: "x"}).String() != "IDENT(x)" {
		t.Error("literal token string wrong")
	}
	if (Token{Kind: LBRACE}).String() != "{" {
		t.Error("operator token string wrong")
	}
}

func TestAssignBinOp(t *testing.T) {
	for k := ADD_ASSIGN; k <= SHR_ASSIGN; k++ {
		op, ok := k.AssignBinOp()
		if !ok || op.String()+"=" != k.String() || op.Precedence() == 0 {
			t.Errorf("%v.AssignBinOp() = %v, %v", k, op, ok)
		}
	}
	for _, k := range []Kind{ASSIGN, EQL, ADD, SHR, INC} {
		if op, ok := k.AssignBinOp(); ok {
			t.Errorf("%v.AssignBinOp() = %v, want no operator", k, op)
		}
	}
}
