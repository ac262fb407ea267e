package analyze

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/sem"
)

// referenceUnusedFuncs is ECL003 as a whole-file walk: seed from every
// module body in the file, close over the bodies of the functions
// reached, and report every unreached function that has a body. The
// rule itself reads the same reachability from sem.FuncInfo.Reached;
// this walk is the reference the fact is checked against.
func referenceUnusedFuncs(p *pass) {
	info := p.design.Lowered.Info
	reached := make(map[*sem.FuncInfo]bool)
	var frontier []*sem.FuncInfo
	mark := func(n ast.Node) {
		if id, ok := n.(*ast.Ident); ok {
			if fi, ok := info.Uses[id].(*sem.FuncInfo); ok && !reached[fi] {
				reached[fi] = true
				frontier = append(frontier, fi)
			}
		}
	}
	for _, mi := range info.Modules {
		if mi.Decl != nil {
			walkStmt(mi.Decl.Body, mark)
		}
	}
	for len(frontier) > 0 {
		fi := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if fi.Decl != nil && fi.Decl.Body != nil {
			walkStmt(fi.Decl.Body, mark)
		}
	}
	var dead []*sem.FuncInfo
	for _, fi := range info.Funcs {
		if !reached[fi] && fi.Decl != nil && fi.Decl.Body != nil {
			dead = append(dead, fi)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Name < dead[j].Name })
	for _, fi := range dead {
		p.report(fi.Decl.Pos(), "function %q is never called from any module", fi.Name)
	}
}

// ecl003Rule returns ECL003's registry entry.
func ecl003Rule(t *testing.T) Rule {
	t.Helper()
	for _, r := range rules {
		if r.ID == "ECL003" {
			return r
		}
	}
	t.Fatal("ECL003 not in the rule table")
	panic("unreachable")
}

// checkECL003 compiles every module of one source and requires the
// rule's findings to equal the reference walk's, returning them.
func checkECL003(t *testing.T, path, src string) []Finding {
	t.Helper()
	prog, err := core.Parse(path, src, core.Options{})
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	var all []Finding
	for _, module := range prog.Modules() {
		d, err := prog.Compile(module)
		if err != nil {
			t.Fatalf("compile %s %s: %v", path, module, err)
		}
		got := Filter(Analyze(d), []string{"ECL003"})
		ref := &pass{design: d, module: module, rule: ecl003Rule(t)}
		referenceUnusedFuncs(ref)
		Sort(ref.findings)
		if len(got) != 0 || len(ref.findings) != 0 {
			if !reflect.DeepEqual(got, ref.findings) {
				t.Errorf("%s module %s: ECL003 findings\n got %v\nwant %v", path, module, got, ref.findings)
			}
		}
		all = append(all, got...)
	}
	return all
}

// TestECL003MatchesWholeFileWalk pins the per-file reachability fact to
// the whole-file walk it replaced, over every vet seed, the shipped
// examples, the paper's examples and the pinned generated corpus.
func TestECL003MatchesWholeFileWalk(t *testing.T) {
	var paths []string
	for _, pattern := range []string{
		filepath.Join("testdata", "vet", "*.ecl"),
		filepath.Join("..", "..", "examples", "*.ecl"),
		filepath.Join("..", "eclgen", "testdata", "corpus", "*.ecl"),
	} {
		matches, err := filepath.Glob(pattern)
		if err != nil || len(matches) == 0 {
			t.Fatalf("no sources match %s: %v", pattern, err)
		}
		paths = append(paths, matches...)
	}
	flagged := 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flagged += len(checkECL003(t, filepath.Base(path), string(src)))
	}
	for name, src := range map[string]string{
		"abro.ecl":   paperex.ABRO,
		"runner.ecl": paperex.RunnerStop,
		"stack.ecl":  paperex.Stack,
		"buffer.ecl": paperex.Buffer,
	} {
		checkECL003(t, name, src)
	}
	if flagged == 0 {
		t.Error("no source raised ECL003; the comparison saw only empty finding sets")
	}
}

// TestECL003Reachability covers the reachability cases one source
// each. ECL003 is a file-wide fact, so every module of the source must
// flag exactly the listed functions, in source order.
func TestECL003Reachability(t *testing.T) {
	cases := []struct {
		name string
		src  string
		dead []string
	}{
		{
			name: "called only by a sibling module",
			src: `
int helper (int a) { return a + 1; }
module user (input pure i, output int o)
{
    while (1) { await (i); emit_v (o, helper (2)); }
}
module other (input pure i, output pure o)
{
    while (1) { await (i); emit (o); }
}
`,
		},
		{
			name: "reached only through another function",
			src: `
int inner (int a) { return a * 2; }
int outer (int a) { return inner (a) + 1; }
module user (input pure i, output int o)
{
    while (1) { await (i); emit_v (o, outer (3)); }
}
`,
		},
		{
			name: "called only from a dead function",
			src: `
int helper (int a) { return a + 1; }
int dead (int a) { return helper (a); }
module user (input pure i, output pure o)
{
    while (1) { await (i); emit (o); }
}
`,
			dead: []string{"helper", "dead"},
		},
		{
			name: "self-recursive and never called",
			src: `
int fact (int n) { if (n <= 1) return 1; return n * fact (n - 1); }
module user (input pure i, output pure o)
{
    while (1) { await (i); emit (o); }
}
`,
			dead: []string{"fact"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want []string
			for _, name := range c.dead {
				want = append(want, `function "`+name+`" is never called from any module`)
			}
			got := map[string][]string{}
			for _, f := range checkECL003(t, "reach.ecl", c.src) {
				got[f.Module] = append(got[f.Module], f.Message)
			}
			prog, err := core.Parse("reach.ecl", c.src, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, module := range prog.Modules() {
				if !reflect.DeepEqual(got[module], want) {
					t.Errorf("module %s flagged %q, want %q", module, got[module], want)
				}
			}
		})
	}
}
