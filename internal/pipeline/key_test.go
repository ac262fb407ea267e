package pipeline

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/paperex"
)

// TestKeyParseContent pins what the parse key covers: equal content
// keys equally whatever string holds it, and a change to the path, a
// define, an include or the source moves the key.
func TestKeyParseContent(t *testing.T) {
	src := "module m (input pure i, output pure o) { while (1) { await (i); emit (o); } }\n"
	defs := map[string]string{"N": "4"}
	incs := map[string]string{"h.h": "#define M 1\n"}
	opts := core.Options{Defines: defs, Includes: incs}
	base := KeyParse("a.ecl", src, opts)

	if got := KeyParse("a.ecl", strings.Clone(src), opts); got != base {
		t.Errorf("equal source in a distinct string keyed %s, want %s", got, base)
	}
	variants := map[string]string{
		"path":           KeyParse("b.ecl", src, opts),
		"define value":   KeyParse("a.ecl", src, core.Options{Defines: map[string]string{"N": "5"}, Includes: incs}),
		"define added":   KeyParse("a.ecl", src, core.Options{Defines: map[string]string{"N": "4", "K": ""}, Includes: incs}),
		"include text":   KeyParse("a.ecl", src, core.Options{Defines: defs, Includes: map[string]string{"h.h": "#define M 2\n"}}),
		"include path":   KeyParse("a.ecl", src, core.Options{Defines: defs, Includes: map[string]string{"g.h": "#define M 1\n"}}),
		"source":         KeyParse("a.ecl", strings.Replace(src, "module m", "module n", 1), opts),
		"source trailer": KeyParse("a.ecl", src+"\n", opts),
	}
	seen := map[string]string{base: "base"}
	for what, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("changing the %s keys the same as %s", what, prev)
		}
		seen[key] = what
	}
	// The memo slot now holds another source; the first one still keys
	// as before.
	if got := KeyParse("a.ecl", src, opts); got != base {
		t.Errorf("re-keyed source gave %s, want %s", got, base)
	}
}

// TestKeyParseMemoKeepsNewString keys a source, then an equal copy in
// a distinct backing array (a re-read file). The keys must be equal,
// and the memo must then hold the copy, so that later calls with it
// compare pointers instead of the whole source.
func TestKeyParseMemoKeepsNewString(t *testing.T) {
	s1 := strings.Repeat("module m (input pure i) { await (i); }\n", 64)
	s2 := strings.Clone(s1)
	if unsafe.StringData(s1) == unsafe.StringData(s2) {
		t.Fatal("strings.Clone shared the backing array")
	}
	k1 := KeyParse("a.ecl", s1, core.Options{})
	if k2 := KeyParse("a.ecl", s2, core.Options{}); k2 != k1 {
		t.Fatalf("equal copy keyed %s, want %s", k2, k1)
	}
	lastSource.Lock()
	held := lastSource.src
	lastSource.Unlock()
	if unsafe.StringData(held) != unsafe.StringData(s2) {
		t.Error("after a content-equal hit the memo still holds the first string")
	}
}

// TestKeyParseMemoAlternating alternates, across goroutines, two
// equal-length sources that differ only in their last byte, some
// calls with a fresh copy of the string. Every call must get its own
// source's key: the one-slot digest memo must never serve a stale
// digest. Run it under -race.
func TestKeyParseMemoAlternating(t *testing.T) {
	body := strings.Repeat("module m (input pure i) { await (i); }\n", 64)
	srcs := [2]string{body + "a", body + "b"}
	var want [2]string
	for i, src := range srcs {
		want[i] = KeyParse("a.ecl", src, core.Options{})
	}
	if want[0] == want[1] {
		t.Fatal("sources differing in the last byte keyed the same")
	}
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % 2
				src := srcs[i]
				if r%3 == 0 {
					src = strings.Clone(src)
				}
				if got := KeyParse("a.ecl", src, core.Options{}); got != want[i] {
					errs <- "source " + string(srcs[i][len(srcs[i])-1]) + " keyed as the other source"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestKeyDesignFields pins what the root key covers: a change to the
// path, the source, a define, the module, the policy, minimization,
// each compile bound, the emit set or the Go package must each key a
// different entry, and equal content under a distinct string the same
// one.
func TestKeyDesignFields(t *testing.T) {
	src := paperex.Stack
	opts := core.Options{Defines: map[string]string{"N": "1"}}
	emits := []Phase{PhaseEmitEsterel, PhaseEmitC}
	key := func(path, src, module string, opts core.Options, emits []Phase, goPkg string) string {
		return KeyDesign(KeyParse(path, src, opts), module, opts, emits, goPkg)
	}
	base := key("stack.ecl", src, "toplevel", opts, emits, "")
	if got := key("stack.ecl", strings.Clone(src), "toplevel", opts, emits, ""); got != base {
		t.Errorf("equal source in a distinct string keyed %s, want %s", got, base)
	}
	with := func(f func(*core.Options)) core.Options {
		o := opts
		f(&o)
		return o
	}
	variants := map[string]string{
		"path":      key("other.ecl", src, "toplevel", opts, emits, ""),
		"source":    key("stack.ecl", src+"\n", "toplevel", opts, emits, ""),
		"define":    key("stack.ecl", src, "toplevel", core.Options{Defines: map[string]string{"N": "2"}}, emits, ""),
		"module":    key("stack.ecl", src, "checkcrc", opts, emits, ""),
		"no module": key("stack.ecl", src, "", opts, emits, ""),
		"policy":    key("stack.ecl", src, "toplevel", with(func(o *core.Options) { o.Policy = lower.MinimalReactive }), emits, ""),
		"minimize":  key("stack.ecl", src, "toplevel", with(func(o *core.Options) { o.Minimize = true }), emits, ""),
		"states":    key("stack.ecl", src, "toplevel", with(func(o *core.Options) { o.Compile.MaxStates = 7 }), emits, ""),
		"runs":      key("stack.ecl", src, "toplevel", with(func(o *core.Options) { o.Compile.MaxRunsPerState = 7 }), emits, ""),
		"decisions": key("stack.ecl", src, "toplevel", with(func(o *core.Options) { o.Compile.MaxDecisionsPerRun = 7 }), emits, ""),
		"emit set":  key("stack.ecl", src, "toplevel", opts, []Phase{PhaseEmitEsterel, PhaseEmitC, PhaseEmitStats}, ""),
		"no emits":  key("stack.ecl", src, "toplevel", opts, nil, ""),
		"go pkg":    key("stack.ecl", src, "toplevel", opts, emits, "genpkg"),
	}
	seen := map[string]string{base: "base"}
	for what, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("changing the %s keys the same as %s", what, prev)
		}
		seen[key] = what
	}
}
