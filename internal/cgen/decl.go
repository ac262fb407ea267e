// Package cgen implements software synthesis from the compiled EFSM:
// a C backend (the paper's phase 3 output for the reactive part plus
// the extracted data functions) and a Go backend that produces a
// self-contained, compilable Go source file for the same machine.
package cgen

import (
	"fmt"
	"strings"

	"repro/internal/ctypes"
)

// sanitize turns an instance-qualified name into a C/Go identifier.
func sanitize(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// cDecl renders a C declaration of name with the given type, placing
// array dimensions after the declarator as C requires.
func cDecl(name string, t ctypes.Type) string {
	base, dims := t, ""
	for {
		at, ok := base.(*ctypes.ArrayType)
		if !ok {
			break
		}
		dims += fmt.Sprintf("[%d]", at.Len)
		base = at.Elem
	}
	return fmt.Sprintf("%s %s%s", CTypeName(base), name, dims)
}

// CTypeName renders a non-array type as C source. Anonymous struct
// and union types print inline. ECL's bool is C99's _Bool, whose
// stores normalize to 0 or 1 as cval's do.
func CTypeName(t ctypes.Type) string {
	switch t := t.(type) {
	case *ctypes.BoolType:
		return "_Bool"
	case *ctypes.StructType:
		kw := "struct"
		if t.Union {
			kw = "union"
		}
		var b strings.Builder
		b.WriteString(kw)
		b.WriteString(" { ")
		for _, f := range t.Fields {
			b.WriteString(cDecl(f.Name, f.Type))
			b.WriteString("; ")
		}
		b.WriteString("}")
		return b.String()
	case *ctypes.EnumType:
		return "int"
	case *ctypes.PointerType:
		return CTypeName(t.Elem) + " *"
	default:
		return t.String()
	}
}
