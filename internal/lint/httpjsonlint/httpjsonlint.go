// Package httpjsonlint is a repo-specific Go linter enforcing one
// invariant: HTTP handlers encode JSON responses through
// internal/httpjson (Write for single values, NewStream for NDJSON,
// whose WriteLine takes lines a hand-written codec already encoded),
// never with a raw json.NewEncoder over the http.ResponseWriter. The
// helper sets Content-Type before the status commits and logs encode
// failures; a raw encoder silently drops both, which is exactly the
// bug class the helper exists to kill.
//
// The checker is purely syntactic (stdlib go/ast, no type checking):
// inside any function with an http.ResponseWriter parameter it taints
// the writer parameters, propagates taint through wrapping calls
// (bufio.NewWriter(w) and friends), and reports
//
//   - json.NewEncoder(tainted) — use httpjson instead, and
//   - a bare enc.Encode(v) statement on such an encoder — the error
//     is discarded.
//
// Encoders over ordinary io.Writers (trace files, buffers, stdout) are
// out of scope. internal/httpjson itself is exempt: it is the one
// place allowed to hold the raw encoder.
package httpjsonlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
)

// Finding is one linter diagnostic.
type Finding struct {
	Pos     token.Position
	Message string
}

// String renders the finding in the usual file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message)
}

// exemptDir is the one package allowed to hold raw encoders over an
// http.ResponseWriter.
const exemptDir = "internal/httpjson"

// CheckDir lints every .go file under root (skipping testdata
// directories and the exempt internal/httpjson package) and returns
// the findings in walk order.
func CheckDir(root string) ([]Finding, error) {
	var findings []Finding
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && name != "." && name != ".." {
				return filepath.SkipDir
			}
			if rel, err := filepath.Rel(root, path); err == nil && filepath.ToSlash(rel) == exemptDir {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("httpjsonlint: %v", err)
		}
		findings = append(findings, CheckFile(fset, file)...)
		return nil
	})
	return findings, err
}

// CheckFile lints one parsed file.
func CheckFile(fset *token.FileSet, file *ast.File) []Finding {
	jsonName := importName(file, "encoding/json")
	httpName := importName(file, "net/http")
	if jsonName == "" || httpName == "" {
		return nil // cannot build the pattern without both imports
	}
	var findings []Finding
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if ok && fn.Body != nil {
			findings = append(findings, checkFunc(fset, jsonName, httpName, fn)...)
		}
	}
	return findings
}

// importName resolves the local name a file imports a package path
// under ("" when not imported; "_" and "." imports are ignored).
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// checkFunc lints one top-level function, nested closures included.
func checkFunc(fset *token.FileSet, jsonName, httpName string, fn *ast.FuncDecl) []Finding {
	// Taint every http.ResponseWriter parameter, of the function itself
	// and of any closures inside it (a handler registered inline).
	tainted := make(map[string]bool)
	addRW := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			if !isRWType(field.Type, httpName) {
				continue
			}
			for _, name := range field.Names {
				tainted[name.Name] = true
			}
		}
	}
	addRW(fn.Type)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			addRW(lit.Type)
		}
		return true
	})
	if len(tainted) == 0 {
		return nil
	}

	var findings []Finding
	encoders := make(map[string]bool) // vars holding json.NewEncoder(tainted)
	report := func(pos token.Pos, format string, args ...any) {
		findings = append(findings, Finding{
			Pos:     fset.Position(pos),
			Message: fmt.Sprintf(format, args...),
		})
	}
	// ast.Inspect visits in source order, which is taint-before-use for
	// the straight-line handler code this rule targets.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isJSONNewEncoder(n, jsonName) && callArgTainted(n, tainted) != "" {
				report(n.Pos(), "json.NewEncoder over http.ResponseWriter %q: respond via internal/httpjson (Write, or NewStream for NDJSON)", callArgTainted(n, tainted))
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				lhs, ok := n.Lhs[i].(*ast.Ident)
				if !ok || lhs.Name == "_" {
					continue
				}
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if isJSONNewEncoder(call, jsonName) {
					if callArgTainted(call, tainted) != "" {
						encoders[lhs.Name] = true
					}
					continue
				}
				// A wrapper over a tainted writer (bufio.NewWriter(w),
				// gzip.NewWriter(w), ...) is itself tainted.
				if callArgTainted(call, tainted) != "" {
					tainted[lhs.Name] = true
				}
			}
		case *ast.ExprStmt:
			// A bare enc.Encode(v) statement discards the error.
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Encode" {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); ok && encoders[recv.Name] {
				report(n.Pos(), "%s.Encode error discarded on an http.ResponseWriter stream: respond via internal/httpjson", recv.Name)
			}
		}
		return true
	})
	return findings
}

// isRWType reports whether a parameter type is http.ResponseWriter.
func isRWType(t ast.Expr, httpName string) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ResponseWriter" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == httpName
}

// isJSONNewEncoder reports whether a call is json.NewEncoder(...).
func isJSONNewEncoder(call *ast.CallExpr, jsonName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewEncoder" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == jsonName
}

// callArgTainted returns the name of the first tainted identifier
// argument ("" when none), looking through unary &x.
func callArgTainted(call *ast.CallExpr, tainted map[string]bool) string {
	for _, arg := range call.Args {
		if u, ok := arg.(*ast.UnaryExpr); ok {
			arg = u.X
		}
		if id, ok := arg.(*ast.Ident); ok && tainted[id.Name] {
			return id.Name
		}
	}
	return ""
}
