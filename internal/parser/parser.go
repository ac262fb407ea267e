// Package parser implements a recursive-descent parser for ECL. It
// consumes tokens from internal/lexer and produces an internal/ast
// tree. Like any C parser it tracks typedef names during the parse to
// disambiguate declarations from expressions.
package parser

import (
	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/source"
	"repro/internal/token"
)

// Parser holds the parse state for one translation unit.
type Parser struct {
	lex   *lexer.Lexer
	file  *source.File
	diags *source.DiagList

	tok  token.Token // current token
	next token.Token // one-token lookahead

	typedefs map[string]bool
	modules  map[string]bool
}

// New prepares a parser over the (already preprocessed) file.
func New(file *source.File, diags *source.DiagList) *Parser {
	p := &Parser{
		lex:      lexer.New(file, diags),
		file:     file,
		diags:    diags,
		typedefs: make(map[string]bool),
		modules:  make(map[string]bool),
	}
	p.tok = p.lex.Next()
	p.next = p.lex.Next()
	return p
}

// ParseFile parses source text into an ast.File, reporting problems to
// diags. It is the package's main entry point.
func ParseFile(file *source.File, diags *source.DiagList) *ast.File {
	p := New(file, diags)
	return p.parseFile()
}

func (p *Parser) pos() source.Pos { return p.file.Pos(p.tok.Offset) }

func (p *Parser) errorf(format string, args ...interface{}) {
	p.diags.Errorf(p.pos(), format, args...)
}

func (p *Parser) advance() {
	p.tok = p.next
	p.next = p.lex.Next()
}

func (p *Parser) got(k token.Kind) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) source.Pos {
	pos := p.pos()
	if p.tok.Kind != k {
		p.errorf("expected %q, found %q", k.String(), p.tok.String())
		// Do not consume: the caller's recovery loop will skip.
		return pos
	}
	p.advance()
	return pos
}

// skipTo skips tokens until one of the kinds (or EOF) is current.
func (p *Parser) skipTo(kinds ...token.Kind) {
	for p.tok.Kind != token.EOF {
		for _, k := range kinds {
			if p.tok.Kind == k {
				return
			}
		}
		p.advance()
	}
}

// ---------------------------------------------------------------------------
// File / declarations

func (p *Parser) parseFile() *ast.File {
	f := &ast.File{Name: p.file.Name}
	for p.tok.Kind != token.EOF {
		before := p.tok
		d := p.parseDecl()
		if d != nil {
			f.Decls = append(f.Decls, d)
		}
		if p.tok == before && p.tok.Kind != token.EOF {
			// No progress: consume a token to avoid looping.
			p.errorf("unexpected token %q at top level", p.tok.String())
			p.advance()
		}
	}
	return f
}

func (p *Parser) parseDecl() ast.Decl {
	switch p.tok.Kind {
	case token.TYPEDEF:
		return p.parseTypedef()
	case token.MODULE:
		return p.parseModule()
	case token.STRUCT, token.UNION, token.ENUM:
		// Could be a bare type decl or a variable/function declaration.
		return p.parseTypeLeadDecl()
	case token.STATIC, token.CONST:
		p.advance() // storage-class specifiers are accepted and ignored
		return p.parseDecl()
	case token.SEMI:
		p.advance()
		return nil
	default:
		if p.startsType() {
			return p.parseTypeLeadDecl()
		}
		p.errorf("expected declaration, found %q", p.tok.String())
		p.skipTo(token.SEMI, token.RBRACE)
		p.got(token.SEMI)
		return nil
	}
}

func (p *Parser) parseTypedef() ast.Decl {
	kw := p.expect(token.TYPEDEF)
	base := p.parseType()
	if p.tok.Kind != token.IDENT {
		p.errorf("expected typedef name, found %q", p.tok.String())
		p.skipTo(token.SEMI)
		p.got(token.SEMI)
		return nil
	}
	name := p.tok.Lit
	p.advance()
	t := p.parseArraySuffix(base)
	p.expect(token.SEMI)
	p.typedefs[name] = true
	return &ast.TypedefDecl{KwPos: kw, Name: name, Type: t}
}

// parseTypeLeadDecl parses a declaration that begins with a type:
// a bare struct/union/enum definition, a global variable, or a function.
func (p *Parser) parseTypeLeadDecl() ast.Decl {
	t := p.parseType()
	if p.tok.Kind == token.SEMI {
		p.advance()
		return &ast.TypeDecl{Type: t}
	}
	if p.tok.Kind != token.IDENT {
		p.errorf("expected declarator name, found %q", p.tok.String())
		p.skipTo(token.SEMI, token.RBRACE)
		p.got(token.SEMI)
		return nil
	}
	namePos := p.pos()
	name := p.tok.Lit
	p.advance()

	if p.tok.Kind == token.LPAREN {
		return p.parseFuncRest(t, name, namePos)
	}

	vt := p.parseArraySuffix(t)
	var init ast.Expr
	if p.got(token.ASSIGN) {
		init = p.parseAssignExpr()
	}
	p.expect(token.SEMI)
	return &ast.GlobalVarDecl{Var: &ast.VarDecl{DeclPos: namePos, Type: vt, Name: name, Init: init}}
}

func (p *Parser) parseFuncRest(ret ast.TypeExpr, name string, namePos source.Pos) ast.Decl {
	p.expect(token.LPAREN)
	var params []*ast.Param
	if p.tok.Kind != token.RPAREN {
		if p.tok.Kind == token.VOID && p.next.Kind == token.RPAREN {
			p.advance()
		} else {
			for {
				pt := p.parseType()
				pname := ""
				if p.tok.Kind == token.IDENT {
					pname = p.tok.Lit
					p.advance()
				}
				pt = p.parseArraySuffix(pt)
				params = append(params, &ast.Param{Type: pt, Name: pname})
				if !p.got(token.COMMA) {
					break
				}
			}
		}
	}
	p.expect(token.RPAREN)
	if p.got(token.SEMI) {
		// Prototype only; represent as a body-less function.
		return &ast.FuncDecl{KwPos: namePos, Ret: ret, Name: name, Params: params}
	}
	body := p.parseBlock()
	return &ast.FuncDecl{KwPos: namePos, Ret: ret, Name: name, Params: params, Body: body}
}

func (p *Parser) parseModule() ast.Decl {
	kw := p.expect(token.MODULE)
	if p.tok.Kind != token.IDENT {
		p.errorf("expected module name, found %q", p.tok.String())
		p.skipTo(token.LBRACE, token.SEMI)
	}
	name := p.tok.Lit
	p.advance()
	p.modules[name] = true
	p.expect(token.LPAREN)
	var params []*ast.SigParam
	if p.tok.Kind != token.RPAREN {
		for {
			sp := p.parseSigParam()
			if sp != nil {
				params = append(params, sp)
			}
			if !p.got(token.COMMA) {
				break
			}
		}
	}
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return &ast.ModuleDecl{KwPos: kw, Name: name, Params: params, Body: body}
}

func (p *Parser) parseSigParam() *ast.SigParam {
	dirPos := p.pos()
	var dir ast.SigDir
	switch p.tok.Kind {
	case token.INPUT:
		dir = ast.In
	case token.OUTPUT:
		dir = ast.Out
	default:
		p.errorf("expected 'input' or 'output', found %q", p.tok.String())
		p.skipTo(token.COMMA, token.RPAREN)
		return nil
	}
	p.advance()
	sp := &ast.SigParam{DirPos: dirPos, Dir: dir}
	if p.got(token.PURE) {
		sp.Pure = true
	} else {
		sp.Type = p.parseType()
	}
	if p.tok.Kind != token.IDENT {
		p.errorf("expected signal name, found %q", p.tok.String())
		p.skipTo(token.COMMA, token.RPAREN)
		return nil
	}
	sp.Name = p.tok.Lit
	p.advance()
	return sp
}

// ---------------------------------------------------------------------------
// Types

// startsType reports whether the current token can begin a type.
func (p *Parser) startsType() bool {
	if p.tok.Kind.IsTypeKeyword() {
		return true
	}
	return p.tok.Kind == token.IDENT && p.typedefs[p.tok.Lit]
}

// parseType parses a type specifier (no declarator suffixes).
func (p *Parser) parseType() ast.TypeExpr {
	pos := p.pos()
	switch p.tok.Kind {
	case token.STRUCT, token.UNION:
		return p.parseStructType()
	case token.ENUM:
		return p.parseEnumType()
	case token.IDENT:
		name := p.tok.Lit
		if !p.typedefs[name] {
			p.errorf("unknown type name %q", name)
		}
		p.advance()
		return p.parsePointerSuffix(&ast.NamedType{NamePos: pos, Name: name})
	}
	if !p.tok.Kind.IsTypeKeyword() {
		p.errorf("expected type, found %q", p.tok.String())
		p.advance()
		return &ast.BuiltinType{KwPos: pos, Kind: ast.Int}
	}
	// Collect C specifier keywords and merge them.
	var hasUnsigned, hasSigned, hasShort, hasChar, hasInt, hasLong bool
	var simple ast.BuiltinKind = ast.Int
	simpleSet := false
	for p.tok.Kind.IsTypeKeyword() {
		switch p.tok.Kind {
		case token.UNSIGNED:
			hasUnsigned = true
		case token.SIGNED:
			hasSigned = true
		case token.SHORT:
			hasShort = true
		case token.LONG:
			hasLong = true
		case token.CHAR_KW:
			hasChar = true
		case token.INT_KW:
			hasInt = true
		case token.VOID:
			simple, simpleSet = ast.Void, true
		case token.BOOL_KW:
			simple, simpleSet = ast.Bool, true
		case token.FLOAT_KW:
			simple, simpleSet = ast.Float, true
		case token.DOUBLE:
			simple, simpleSet = ast.Double, true
		case token.STRUCT, token.UNION, token.ENUM:
			// Handled above; cannot follow other specifiers here.
			p.errorf("unexpected %q in type specifier", p.tok.String())
		}
		p.advance()
	}
	kind := simple
	switch {
	case simpleSet:
		// void/bool/float/double stand alone.
	case hasChar:
		switch {
		case hasUnsigned:
			kind = ast.UChar
		case hasSigned:
			kind = ast.SChar
		default:
			kind = ast.Char
		}
	case hasShort:
		if hasUnsigned {
			kind = ast.UShort
		} else {
			kind = ast.Short
		}
	case hasLong:
		if hasUnsigned {
			kind = ast.ULong
		} else {
			kind = ast.Long
		}
	case hasInt || hasUnsigned || hasSigned:
		if hasUnsigned {
			kind = ast.UInt
		} else {
			kind = ast.Int
		}
	}
	_ = hasInt
	return p.parsePointerSuffix(&ast.BuiltinType{KwPos: pos, Kind: kind})
}

func (p *Parser) parsePointerSuffix(t ast.TypeExpr) ast.TypeExpr {
	for p.tok.Kind == token.MUL {
		star := p.pos()
		p.advance()
		t = &ast.PointerType{StarPos: star, Elem: t}
	}
	return t
}

// parseArraySuffix applies [n][m]... dimensions written after a
// declarator name. C's row-major reading means the first written
// dimension is the outermost array.
func (p *Parser) parseArraySuffix(t ast.TypeExpr) ast.TypeExpr {
	var dims []ast.Expr
	for p.got(token.LBRACK) {
		dims = append(dims, p.parseExpr())
		p.expect(token.RBRACK)
	}
	for i := len(dims) - 1; i >= 0; i-- {
		t = &ast.ArrayType{Elem: t, Len: dims[i]}
	}
	return t
}

func (p *Parser) parseStructType() ast.TypeExpr {
	pos := p.pos()
	union := p.tok.Kind == token.UNION
	p.advance()
	tag := ""
	if p.tok.Kind == token.IDENT {
		tag = p.tok.Lit
		p.advance()
	}
	if !p.got(token.LBRACE) {
		return p.parsePointerSuffix(&ast.StructType{KwPos: pos, Union: union, Tag: tag})
	}
	st := &ast.StructType{KwPos: pos, Union: union, Tag: tag, Fields: []*ast.Field{}}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		ft := p.parseType()
		for {
			if p.tok.Kind != token.IDENT {
				p.errorf("expected field name, found %q", p.tok.String())
				p.skipTo(token.SEMI, token.RBRACE)
				break
			}
			fname := p.tok.Lit
			p.advance()
			var dims []ast.Expr
			for p.got(token.LBRACK) {
				dims = append(dims, p.parseExpr())
				p.expect(token.RBRACK)
			}
			st.Fields = append(st.Fields, &ast.Field{Type: ft, Name: fname, Dims: dims})
			if !p.got(token.COMMA) {
				break
			}
		}
		p.expect(token.SEMI)
	}
	p.expect(token.RBRACE)
	return p.parsePointerSuffix(st)
}

func (p *Parser) parseEnumType() ast.TypeExpr {
	pos := p.expect(token.ENUM)
	tag := ""
	if p.tok.Kind == token.IDENT {
		tag = p.tok.Lit
		p.advance()
	}
	if !p.got(token.LBRACE) {
		return &ast.EnumType{KwPos: pos, Tag: tag}
	}
	et := &ast.EnumType{KwPos: pos, Tag: tag, Items: []*ast.EnumItem{}}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		if p.tok.Kind != token.IDENT {
			p.errorf("expected enumerator name, found %q", p.tok.String())
			p.skipTo(token.COMMA, token.RBRACE)
		} else {
			item := &ast.EnumItem{Name: p.tok.Lit}
			p.advance()
			if p.got(token.ASSIGN) {
				item.Value = p.parseAssignExpr()
			}
			et.Items = append(et.Items, item)
		}
		if !p.got(token.COMMA) {
			break
		}
	}
	p.expect(token.RBRACE)
	return et
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() *ast.Block {
	lb := p.expect(token.LBRACE)
	b := &ast.Block{LBrace: lb}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		before := p.tok
		stmts := p.parseStmtOrDecls()
		b.Stmts = append(b.Stmts, stmts...)
		if p.tok == before {
			p.errorf("unexpected token %q in block", p.tok.String())
			p.advance()
		}
	}
	p.expect(token.RBRACE)
	return b
}

// parseStmtOrDecls parses one statement, or a declaration which may
// expand to several VarDecl statements (int a, b;).
func (p *Parser) parseStmtOrDecls() []ast.Stmt {
	if p.tok.Kind == token.SIGNAL {
		return []ast.Stmt{p.parseSignalDecl()}
	}
	if p.isDeclStart() {
		return p.parseLocalDecl()
	}
	return []ast.Stmt{p.parseStmt()}
}

// isDeclStart distinguishes "packet_t buffer;" from "buffer = x;".
func (p *Parser) isDeclStart() bool {
	switch p.tok.Kind {
	case token.STRUCT, token.UNION, token.ENUM, token.CONST, token.STATIC:
		return true
	}
	if p.tok.Kind.IsTypeKeyword() {
		return true
	}
	if p.tok.Kind == token.IDENT && p.typedefs[p.tok.Lit] {
		// A typedef name followed by an identifier or '*' begins a decl.
		return p.next.Kind == token.IDENT || p.next.Kind == token.MUL
	}
	return false
}

func (p *Parser) parseSignalDecl() ast.Stmt {
	kw := p.expect(token.SIGNAL)
	sd := &ast.SignalDecl{KwPos: kw}
	if p.got(token.PURE) {
		sd.Pure = true
	} else {
		sd.Type = p.parseType()
	}
	if p.tok.Kind != token.IDENT {
		p.errorf("expected signal name, found %q", p.tok.String())
		p.skipTo(token.SEMI)
	} else {
		sd.Name = p.tok.Lit
		p.advance()
	}
	p.expect(token.SEMI)
	return sd
}

func (p *Parser) parseLocalDecl() []ast.Stmt {
	for p.tok.Kind == token.CONST || p.tok.Kind == token.STATIC {
		p.advance()
	}
	base := p.parseType()
	var out []ast.Stmt
	for {
		if p.tok.Kind != token.IDENT {
			p.errorf("expected variable name, found %q", p.tok.String())
			p.skipTo(token.SEMI, token.RBRACE)
			break
		}
		namePos := p.pos()
		name := p.tok.Lit
		p.advance()
		t := p.parseArraySuffix(base)
		var init ast.Expr
		if p.got(token.ASSIGN) {
			init = p.parseAssignExpr()
		}
		out = append(out, &ast.VarDecl{DeclPos: namePos, Type: t, Name: name, Init: init})
		if !p.got(token.COMMA) {
			break
		}
	}
	p.expect(token.SEMI)
	return out
}

func (p *Parser) parseStmt() ast.Stmt {
	switch p.tok.Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMI:
		pos := p.pos()
		p.advance()
		return &ast.Empty{SemiPos: pos}
	case token.IF:
		return p.parseIf()
	case token.WHILE:
		return p.parseWhile()
	case token.DO:
		return p.parseDo()
	case token.FOR:
		return p.parseFor()
	case token.SWITCH:
		return p.parseSwitch()
	case token.BREAK:
		pos := p.pos()
		p.advance()
		p.expect(token.SEMI)
		return &ast.Break{KwPos: pos}
	case token.CONTINUE:
		pos := p.pos()
		p.advance()
		p.expect(token.SEMI)
		return &ast.Continue{KwPos: pos}
	case token.RETURN:
		pos := p.pos()
		p.advance()
		var x ast.Expr
		if p.tok.Kind != token.SEMI {
			x = p.parseExpr()
		}
		p.expect(token.SEMI)
		return &ast.Return{KwPos: pos, X: x}
	case token.EMIT, token.EMIT_V:
		return p.parseEmit()
	case token.AWAIT:
		return p.parseAwait()
	case token.HALT:
		pos := p.pos()
		p.advance()
		p.expect(token.LPAREN)
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return &ast.Halt{KwPos: pos}
	case token.PRESENT:
		return p.parsePresent()
	case token.PAR:
		return p.parsePar()
	default:
		x := p.parseExpr()
		p.expect(token.SEMI)
		return &ast.ExprStmt{X: x}
	}
}

func (p *Parser) parseIf() ast.Stmt {
	pos := p.expect(token.IF)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseStmt()
	var els ast.Stmt
	if p.got(token.ELSE) {
		els = p.parseStmt()
	}
	return &ast.If{KwPos: pos, Cond: cond, Then: then, Else: els}
}

func (p *Parser) parseWhile() ast.Stmt {
	pos := p.expect(token.WHILE)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseStmt()
	return &ast.While{KwPos: pos, Cond: cond, Body: body}
}

// parseDo handles both C do/while and ECL's do/abort family.
func (p *Parser) parseDo() ast.Stmt {
	pos := p.expect(token.DO)
	body := p.parseStmt()
	switch p.tok.Kind {
	case token.WHILE:
		p.advance()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return &ast.DoWhile{KwPos: pos, Body: body, Cond: cond}
	case token.ABORT, token.WEAK_ABORT, token.SUSPEND:
		kind := ast.Strong
		switch p.tok.Kind {
		case token.WEAK_ABORT:
			kind = ast.Weak
		case token.SUSPEND:
			kind = ast.Susp
		}
		p.advance()
		p.expect(token.LPAREN)
		sig := p.parseExpr()
		p.expect(token.RPAREN)
		var handler ast.Stmt
		if p.tok.Kind == token.HANDLE {
			if kind == ast.Susp {
				p.errorf("suspend does not take a handle clause")
			}
			p.advance()
			handler = p.parseStmt()
		} else {
			p.got(token.SEMI)
		}
		return &ast.DoPreempt{KwPos: pos, Kind: kind, Body: body, Sig: sig, Handler: handler}
	default:
		p.errorf("expected 'while', 'abort', 'weak_abort' or 'suspend' after do-body, found %q", p.tok.String())
		return body
	}
}

func (p *Parser) parseFor() ast.Stmt {
	pos := p.expect(token.FOR)
	p.expect(token.LPAREN)
	var init ast.Stmt
	if p.tok.Kind != token.SEMI {
		if p.isDeclStart() {
			decls := p.parseLocalDecl() // consumes the ';'
			if len(decls) == 1 {
				init = decls[0]
			} else {
				init = &ast.Block{LBrace: pos, Stmts: decls}
			}
		} else {
			init = &ast.ExprStmt{X: p.parseCommaExpr()}
			p.expect(token.SEMI)
		}
	} else {
		p.expect(token.SEMI)
	}
	var cond ast.Expr
	if p.tok.Kind != token.SEMI {
		cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	var post ast.Stmt
	if p.tok.Kind != token.RPAREN {
		post = &ast.ExprStmt{X: p.parseCommaExpr()}
	}
	p.expect(token.RPAREN)
	body := p.parseStmt()
	return &ast.For{KwPos: pos, Init: init, Cond: cond, Post: post, Body: body}
}

func (p *Parser) parseSwitch() ast.Stmt {
	pos := p.expect(token.SWITCH)
	p.expect(token.LPAREN)
	tag := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	sw := &ast.Switch{KwPos: pos, Tag: tag}
	var cur *ast.CaseClause
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.CASE:
			cpos := p.pos()
			p.advance()
			v := p.parseExpr()
			p.expect(token.COLON)
			// Consecutive case labels share one clause; a label after
			// an empty default starts its own, so the default survives.
			if cur != nil && cur.Values != nil && len(cur.Body) == 0 {
				cur.Values = append(cur.Values, v)
			} else {
				cur = &ast.CaseClause{KwPos: cpos, Values: []ast.Expr{v}}
				sw.Cases = append(sw.Cases, cur)
			}
		case token.DEFAULT:
			cpos := p.pos()
			p.advance()
			p.expect(token.COLON)
			cur = &ast.CaseClause{KwPos: cpos}
			sw.Cases = append(sw.Cases, cur)
		default:
			if cur == nil {
				p.errorf("statement before first case in switch")
				cur = &ast.CaseClause{KwPos: p.pos()}
				sw.Cases = append(sw.Cases, cur)
			}
			cur.Body = append(cur.Body, p.parseStmtOrDecls()...)
		}
	}
	p.expect(token.RBRACE)
	return sw
}

func (p *Parser) parseEmit() ast.Stmt {
	valued := p.tok.Kind == token.EMIT_V
	pos := p.pos()
	p.advance()
	p.expect(token.LPAREN)
	if p.tok.Kind != token.IDENT {
		p.errorf("expected signal name in emit, found %q", p.tok.String())
		p.skipTo(token.SEMI)
		p.got(token.SEMI)
		return &ast.Empty{SemiPos: pos}
	}
	sig := &ast.Ident{NamePos: p.pos(), Name: p.tok.Lit}
	p.advance()
	var val ast.Expr
	if valued {
		p.expect(token.COMMA)
		val = p.parseAssignExpr()
	}
	p.expect(token.RPAREN)
	p.expect(token.SEMI)
	return &ast.Emit{KwPos: pos, Signal: sig, Value: val}
}

func (p *Parser) parseAwait() ast.Stmt {
	pos := p.expect(token.AWAIT)
	p.expect(token.LPAREN)
	var sig ast.Expr
	if p.tok.Kind != token.RPAREN {
		sig = p.parseExpr()
	}
	p.expect(token.RPAREN)
	p.expect(token.SEMI)
	return &ast.Await{KwPos: pos, Sig: sig}
}

func (p *Parser) parsePresent() ast.Stmt {
	pos := p.expect(token.PRESENT)
	p.expect(token.LPAREN)
	sig := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseStmt()
	var els ast.Stmt
	if p.got(token.ELSE) {
		els = p.parseStmt()
	}
	return &ast.Present{KwPos: pos, Sig: sig, Then: then, Else: els}
}

// parsePar parses par { b1; b2; ... }. Each top-level statement of the
// block is one concurrent branch; a nested block groups statements
// into a single branch.
func (p *Parser) parsePar() ast.Stmt {
	pos := p.expect(token.PAR)
	p.expect(token.LBRACE)
	par := &ast.Par{KwPos: pos}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		before := p.tok
		stmts := p.parseStmtOrDecls()
		par.Branches = append(par.Branches, stmts...)
		if p.tok == before {
			p.errorf("unexpected token %q in par", p.tok.String())
			p.advance()
		}
	}
	p.expect(token.RBRACE)
	return par
}

// ---------------------------------------------------------------------------
// Expressions

// parseCommaExpr parses "a, b, c" (the C comma operator), used in for
// clauses. Comma folds left-associatively into Binary nodes.
func (p *Parser) parseCommaExpr() ast.Expr {
	x := p.parseAssignExpr()
	for p.tok.Kind == token.COMMA {
		p.advance()
		y := p.parseAssignExpr()
		x = &ast.Binary{X: x, Op: token.COMMA, Y: y}
	}
	return x
}

// parseExpr parses an expression without top-level commas.
func (p *Parser) parseExpr() ast.Expr { return p.parseAssignExpr() }

func (p *Parser) parseAssignExpr() ast.Expr {
	x := p.parseCondExpr()
	if p.tok.Kind.IsAssignOp() {
		op := p.tok.Kind
		p.advance()
		rhs := p.parseAssignExpr()
		return &ast.Assign{LHS: x, Op: op, RHS: rhs}
	}
	return x
}

func (p *Parser) parseCondExpr() ast.Expr {
	x := p.parseBinaryExpr(1)
	if p.got(token.QUESTION) {
		then := p.parseAssignExpr()
		p.expect(token.COLON)
		els := p.parseCondExpr()
		return &ast.Cond{CondX: x, Then: then, Else: els}
	}
	return x
}

func (p *Parser) parseBinaryExpr(minPrec int) ast.Expr {
	x := p.parseUnaryExpr()
	for {
		prec := p.tok.Kind.Precedence()
		if prec < minPrec {
			return x
		}
		op := p.tok.Kind
		p.advance()
		y := p.parseBinaryExpr(prec + 1)
		x = &ast.Binary{X: x, Op: op, Y: y}
	}
}

func (p *Parser) parseUnaryExpr() ast.Expr {
	pos := p.pos()
	switch p.tok.Kind {
	case token.ADD, token.SUB, token.NOT, token.TILDE, token.AND, token.MUL:
		op := p.tok.Kind
		p.advance()
		return &ast.Unary{OpPos: pos, Op: op, X: p.parseUnaryExpr()}
	case token.INC, token.DEC:
		op := p.tok.Kind
		p.advance()
		return &ast.Unary{OpPos: pos, Op: op, X: p.parseUnaryExpr()}
	case token.SIZEOF:
		p.advance()
		p.expect(token.LPAREN)
		var se ast.SizeofExpr
		se.KwPos = pos
		if p.startsType() {
			se.Type = p.parseType()
		} else {
			se.X = p.parseExpr()
		}
		p.expect(token.RPAREN)
		return &se
	case token.LPAREN:
		// Cast or parenthesized expression.
		if p.castAhead() {
			lp := p.pos()
			p.advance()
			t := p.parseType()
			p.expect(token.RPAREN)
			x := p.parseUnaryExpr()
			return &ast.Cast{LP: lp, Type: t, X: x}
		}
	}
	return p.parsePostfixExpr()
}

// castAhead reports whether the current '(' opens a cast.
func (p *Parser) castAhead() bool {
	if p.tok.Kind != token.LPAREN {
		return false
	}
	switch p.next.Kind {
	case token.IDENT:
		return p.typedefs[p.next.Lit]
	default:
		return p.next.Kind.IsTypeKeyword()
	}
}

func (p *Parser) parsePostfixExpr() ast.Expr {
	x := p.parsePrimaryExpr()
	for {
		switch p.tok.Kind {
		case token.LBRACK:
			p.advance()
			sub := p.parseExpr()
			p.expect(token.RBRACK)
			x = &ast.Index{X: x, Sub: sub}
		case token.DOT:
			p.advance()
			if p.tok.Kind != token.IDENT {
				p.errorf("expected field name after '.', found %q", p.tok.String())
				return x
			}
			x = &ast.Member{X: x, Name: p.tok.Lit}
			p.advance()
		case token.ARROW:
			p.advance()
			if p.tok.Kind != token.IDENT {
				p.errorf("expected field name after '->', found %q", p.tok.String())
				return x
			}
			x = &ast.Member{X: x, Name: p.tok.Lit, Arrow: true}
			p.advance()
		case token.INC, token.DEC:
			x = &ast.Postfix{X: x, Op: p.tok.Kind}
			p.advance()
		case token.LPAREN:
			id, ok := x.(*ast.Ident)
			if !ok {
				p.errorf("call of non-identifier expression")
				return x
			}
			p.advance()
			call := &ast.Call{Fun: id}
			if p.tok.Kind != token.RPAREN {
				for {
					call.Args = append(call.Args, p.parseAssignExpr())
					if !p.got(token.COMMA) {
						break
					}
				}
			}
			p.expect(token.RPAREN)
			x = call
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimaryExpr() ast.Expr {
	pos := p.pos()
	switch p.tok.Kind {
	case token.IDENT:
		id := &ast.Ident{NamePos: pos, Name: p.tok.Lit}
		p.advance()
		return id
	case token.INT, token.FLOAT, token.CHAR, token.STRING:
		lit := &ast.BasicLit{LitPos: pos, Kind: p.tok.Kind, Value: p.tok.Lit}
		p.advance()
		return lit
	case token.LPAREN:
		p.advance()
		x := p.parseCommaExpr() // C allows the comma operator inside parens
		p.expect(token.RPAREN)
		return &ast.Paren{LP: pos, X: x}
	default:
		p.errorf("expected expression, found %q", p.tok.String())
		p.advance()
		return &ast.BasicLit{LitPos: pos, Kind: token.INT, Value: "0"}
	}
}
