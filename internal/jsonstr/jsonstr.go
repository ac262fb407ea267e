// Package jsonstr appends JSON strings exactly as encoding/json writes
// them. It is the one string writer behind the repository's direct
// JSON appenders (the trace-event codec in internal/exec, the lowered
// snapshot in internal/pipeline), so their bytes stay encoding/json's
// without each carrying its own escaper.
package jsonstr

import "encoding/json"

// Append appends s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes under its HTML-safe rules (" \ < >
// &) is copied directly; a string holding anything else is handed to
// encoding/json, so exotic text comes out exactly as it writes it.
func Append(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
