package jsonstr

import (
	"encoding/json"
	"testing"
)

// FuzzAppend pins Append to encoding/json for any string, the plain
// ASCII fast path and the escaping fallback alike.
func FuzzAppend(f *testing.F) {
	for _, s := range []string{"", "plain", `a"b`, `a\b`, "x < y", "a > b", "p & q", "tab\there", "nl\n", "\x7f", "é", " ", "\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := Append([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Errorf("Append(%q) = %s, want %s", s, got[len("prefix"):], want)
		}
	})
}
