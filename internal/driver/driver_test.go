package driver

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/pipeline"
)

func buildCtx() context.Context { return context.Background() }

func TestBuildSingleAllSoftwareTargets(t *testing.T) {
	d := New(0)
	res := d.BuildOne(Request{
		Path:    "abro.ecl",
		Source:  paperex.ABRO,
		Targets: []Target{TargetEsterel, TargetC, TargetGo, TargetGlue, TargetDot, TargetTable, TargetStats},
	})
	if res.Failed() {
		t.Fatalf("build failed: %v", res.Err)
	}
	if res.Module != "abro" {
		t.Fatalf("module = %q, want abro", res.Module)
	}
	checks := map[Target]string{
		TargetEsterel: "module abro:",
		TargetC:       "abro_react",
		TargetGo:      "package abro",
		TargetDot:     "digraph",
		TargetTable:   "table abro: states=",
		TargetStats:   "EFSM:",
	}
	for target, want := range checks {
		if got := res.Artifacts[target]; !strings.Contains(got, want) {
			t.Errorf("%s artifact missing %q:\n%s", target, want, got)
		}
	}
	if res.Stats == nil || res.Stats.EFSM.States == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	if res.Design == nil {
		t.Error("design not exposed")
	}
}

func TestBuildDefaultsToLastModule(t *testing.T) {
	var d Driver // zero value is usable
	res := d.BuildOne(Request{Path: "stack.ecl", Source: paperex.Stack})
	if res.Failed() {
		t.Fatalf("build failed: %v", res.Err)
	}
	if res.Module != "toplevel" {
		t.Errorf("module = %q, want toplevel (last in file)", res.Module)
	}
}

func TestBuildHardwareTargets(t *testing.T) {
	d := New(2)
	res := d.BuildOne(Request{
		Path:    "abro.ecl",
		Source:  paperex.ABRO,
		Targets: []Target{TargetVerilog, TargetVHDL},
	})
	if res.Failed() {
		t.Fatalf("build failed: %v", res.Err)
	}
	if !strings.Contains(res.Artifacts[TargetVerilog], "module abro") {
		t.Error("verilog artifact wrong")
	}
	if !strings.Contains(res.Artifacts[TargetVHDL], "entity abro") {
		t.Error("vhdl artifact wrong")
	}
}

func TestBuildBatchConcurrentMatchesSequential(t *testing.T) {
	reqs, err := ExpandModules(Request{
		Path:    "stack.ecl",
		Source:  paperex.Stack,
		Targets: []Target{TargetEsterel, TargetC},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 4 {
		t.Fatalf("stack expands to %d requests, want 4", len(reqs))
	}
	more, err := ExpandModules(Request{
		Path:    "buffer.ecl",
		Source:  paperex.Buffer,
		Targets: []Target{TargetEsterel, TargetC},
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, more...)

	seq, err := New(1).Build(buildCtx(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := New(8).Build(buildCtx(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if seq[i].Module != conc[i].Module {
			t.Errorf("request %d: module %q vs %q", i, seq[i].Module, conc[i].Module)
		}
		for _, target := range reqs[i].Targets {
			if seq[i].Artifacts[target] != conc[i].Artifacts[target] {
				t.Errorf("request %d: %s artifact differs between sequential and concurrent build",
					i, target)
			}
		}
	}
}

func TestCacheHitsOnRebuild(t *testing.T) {
	d := New(4)
	req := Request{Path: "abro.ecl", Source: paperex.ABRO, Targets: []Target{TargetC}}

	first := d.BuildOne(req)
	if first.Failed() || first.Cached {
		t.Fatalf("first build: err=%v cached=%t", first.Err, first.Cached)
	}
	second := d.BuildOne(req)
	if second.Failed() || !second.Cached {
		t.Fatalf("second build: err=%v cached=%t", second.Err, second.Cached)
	}
	if first.Artifacts[TargetC] != second.Artifacts[TargetC] {
		t.Error("cached artifact differs")
	}
	cs := d.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/1", cs.Hits, cs.Misses)
	}

	// A different module of the same source is a distinct design.
	third := d.BuildOne(Request{Path: "abro.ecl", Source: paperex.ABRO, Module: "abro"})
	if third.Failed() || third.Cached {
		t.Fatalf("explicit-module build: err=%v cached=%t", third.Err, third.Cached)
	}
}

func TestCacheIsPathAware(t *testing.T) {
	// Identical source under two paths must not share an entry:
	// diagnostics and AST positions carry the file name.
	d := New(0)
	bad := "module m ("
	a := d.BuildOne(Request{Path: "a.ecl", Source: bad})
	b := d.BuildOne(Request{Path: "b.ecl", Source: bad})
	if !a.Failed() || !b.Failed() {
		t.Fatal("want both to fail")
	}
	if b.Cached {
		t.Error("b.ecl wrongly served from a.ecl's cache entry")
	}
	if got := b.Diags[0].File; got != "b.ecl" {
		t.Errorf("b.ecl diagnostic names file %q", got)
	}
	if got := b.Diags[0].Pos; !strings.HasPrefix(got, "b.ecl:") {
		t.Errorf("b.ecl diagnostic position %q", got)
	}
}

func TestNoCacheRecompiles(t *testing.T) {
	d := &Driver{NoCache: true}
	req := Request{Path: "abro.ecl", Source: paperex.ABRO}
	if res := d.BuildOne(req); res.Failed() || res.Cached {
		t.Fatalf("first: err=%v cached=%t", res.Err, res.Cached)
	}
	if res := d.BuildOne(req); res.Failed() || res.Cached {
		t.Fatalf("second: err=%v cached=%t", res.Err, res.Cached)
	}
}

func TestParseErrorDiagnostics(t *testing.T) {
	d := New(0)
	res := d.BuildOne(Request{
		Path:   "bad.ecl",
		Source: "module m (input pure a, output pure b) { await (; }",
	})
	if !res.Failed() {
		t.Fatal("want parse failure")
	}
	if len(res.Diags) == 0 {
		t.Fatal("no structured diagnostics")
	}
	for _, diag := range res.Diags {
		if diag.Phase != PhaseParse {
			t.Errorf("phase = %s, want parse", diag.Phase)
		}
		if diag.File != "bad.ecl" {
			t.Errorf("file = %q", diag.File)
		}
	}
	if !strings.Contains(res.Diags[0].String(), "[parse]") {
		t.Errorf("diag string missing phase: %s", res.Diags[0])
	}
}

func TestUnknownModuleDiagnostics(t *testing.T) {
	d := New(0)
	res := d.BuildOne(Request{Path: "abro.ecl", Source: paperex.ABRO, Module: "nosuch"})
	if !res.Failed() {
		t.Fatal("want failure for unknown module")
	}
	if len(res.Diags) == 0 || res.Diags[0].Phase != PhaseLower {
		t.Fatalf("diags = %+v, want lower-phase diagnostic", res.Diags)
	}
	if res.Diags[0].Module != "nosuch" {
		t.Errorf("module = %q", res.Diags[0].Module)
	}
}

func TestCompileBoundDiagnostics(t *testing.T) {
	d := New(0)
	res := d.BuildOne(Request{
		Path:    "stack.ecl",
		Source:  paperex.Stack,
		Options: core.Options{Compile: compile.Options{MaxStates: 1}},
	})
	if !res.Failed() {
		t.Fatal("want failure for MaxStates=1")
	}
	if res.Diags[0].Phase != PhaseCompile {
		t.Errorf("phase = %s, want compile", res.Diags[0].Phase)
	}
}

func TestEmitErrorDiagnostics(t *testing.T) {
	// The stack has a data part, so hardware synthesis must fail in
	// the emit phase.
	d := New(0)
	res := d.BuildOne(Request{
		Path:    "stack.ecl",
		Source:  paperex.Stack,
		Targets: []Target{TargetVerilog},
	})
	if !res.Failed() {
		t.Fatal("want hardware-synthesis failure")
	}
	last := res.Diags[len(res.Diags)-1]
	if last.Phase != PhaseEmit {
		t.Errorf("phase = %s, want emit", last.Phase)
	}
}

func TestMissingFileDiagnostics(t *testing.T) {
	d := New(0)
	res := d.BuildOne(Request{Path: "does/not/exist.ecl"})
	if !res.Failed() {
		t.Fatal("want read failure")
	}
	if res.Diags[0].Phase != PhaseRead {
		t.Errorf("phase = %s, want read", res.Diags[0].Phase)
	}
}

func TestBuildAggregatesErrors(t *testing.T) {
	d := New(4)
	results, err := d.Build(buildCtx(), []Request{
		{Path: "good.ecl", Source: paperex.ABRO},
		{Path: "bad.ecl", Source: "module ???"},
	})
	if err == nil {
		t.Fatal("want aggregated error")
	}
	if results[0].Failed() {
		t.Errorf("good request failed: %v", results[0].Err)
	}
	if !results[1].Failed() {
		t.Error("bad request did not fail")
	}
}

func TestBuildCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// With a pre-cancelled context nothing may be dispatched, even
	// when worker slots are free: every request must come back failed.
	d := New(8)
	results, err := d.Build(ctx, []Request{
		{Path: "a.ecl", Source: paperex.ABRO},
		{Path: "b.ecl", Source: paperex.ABRO},
	})
	if err == nil {
		t.Fatal("want error from cancelled context")
	}
	for i, r := range results {
		if !r.Failed() {
			t.Errorf("request %d compiled despite cancelled context", i)
		}
	}
}

func TestParseTargets(t *testing.T) {
	targets, err := ParseTargets("esterel, c,glue ,stats,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Target{TargetEsterel, TargetC, TargetGlue, TargetStats}
	if len(targets) != len(want) {
		t.Fatalf("targets = %v", targets)
	}
	for i := range want {
		if targets[i] != want[i] {
			t.Errorf("target %d = %s, want %s", i, targets[i], want[i])
		}
	}
	if _, err := ParseTargets("esterel,bogus"); err == nil {
		t.Error("want error for unknown target")
	}
	// Repeats dedup (a doubled -target must not emit twice).
	if dup, err := ParseTargets("c,c,esterel,c"); err != nil || len(dup) != 2 {
		t.Errorf("dedup: targets = %v, err = %v", dup, err)
	}
	if len(AllTargets()) != 9 {
		t.Errorf("AllTargets = %v", AllTargets())
	}
}

func TestTargetFilenames(t *testing.T) {
	cases := map[Target]string{
		TargetEsterel: "m.strl", TargetC: "m.c", TargetGo: "m_gen.go",
		TargetGlue: "m_glue.h", TargetDot: "m.dot", TargetTable: "m.efsmtab",
		TargetVerilog: "m.v", TargetVHDL: "m.vhd", TargetStats: "",
	}
	for target, want := range cases {
		if got := target.Filename("m"); got != want {
			t.Errorf("%s.Filename = %q, want %q", target, got, want)
		}
	}
}

// vetSource carries exactly one analyzer finding (ECL001: unused local
// signal).
const vetSource = `
module m (input pure i, output pure o)
{
    signal pure unused_sig;
    while (1) {
        await (i);
        emit (o);
    }
}
`

func analyzeStatus(t *testing.T, res *Result) pipeline.Status {
	t.Helper()
	for _, pr := range res.Phases {
		if pr.Phase == pipeline.PhaseAnalyze {
			return pr.Status
		}
	}
	t.Fatalf("analyze phase not walked (phases: %+v)", res.Phases)
	return ""
}

func TestDriverAnalyze(t *testing.T) {
	d := New(1)
	req := Request{Path: "vet.ecl", Source: vetSource, Analyze: true}
	res := d.BuildOne(req)
	if res.Failed() {
		t.Fatalf("build: %v", res.Err)
	}
	if len(res.Findings) != 1 || res.Findings[0].Rule != "ECL001" {
		t.Fatalf("findings = %+v, want one ECL001", res.Findings)
	}
	if st := analyzeStatus(t, &res); st != pipeline.StatusRebuilt {
		t.Errorf("analyze = %s, want rebuilt", st)
	}

	// Identical request on the same driver: it walks (findings are
	// not in the root entry), and the analyze phase replays its
	// findings from memory.
	again := d.BuildOne(req)
	if st := analyzeStatus(t, &again); st != pipeline.StatusMemHit || len(again.Findings) != 1 {
		t.Errorf("repeat = (analyze %s, %+v), want a mem-hit with the finding", st, again.Findings)
	}
}

// TestDriverAnalyzeSkipsDesignTier: an analyze request must walk the
// phase graph even when the root entry could serve the artifacts,
// so warm runs report the analyze phase's own disk-hit.
func TestDriverAnalyzeSkipsDesignTier(t *testing.T) {
	dir := t.TempDir()
	open := func() *Driver {
		store, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return &Driver{Workers: 1, Disk: store}
	}
	req := Request{Path: "vet.ecl", Source: vetSource, Targets: []Target{TargetC}, Analyze: true}

	cold := open().BuildOne(req)
	if cold.Failed() {
		t.Fatalf("cold: %v", cold.Err)
	}
	if st := analyzeStatus(t, &cold); st != pipeline.StatusRebuilt {
		t.Errorf("cold analyze = %s, want rebuilt", st)
	}

	warm := open().BuildOne(req)
	if warm.Failed() {
		t.Fatalf("warm: %v", warm.Err)
	}
	if st := analyzeStatus(t, &warm); st != pipeline.StatusDiskHit {
		t.Errorf("warm analyze = %s, want disk-hit", st)
	}
	if len(warm.Findings) != 1 || warm.Findings[0] != cold.Findings[0] {
		t.Errorf("warm findings = %+v, want %+v", warm.Findings, cold.Findings)
	}
	if warm.Artifacts[TargetC] != cold.Artifacts[TargetC] {
		t.Errorf("warm artifact differs from cold")
	}
}

// TestDriverAnalyzeWalksPastRootEntry: an analyze request for a design
// whose root entry a plain request just stored walks the graph instead
// — the root holds no findings — with every machine and emit phase a
// memory hit, and reports the findings an uncached analysis does.
func TestDriverAnalyzeWalksPastRootEntry(t *testing.T) {
	d := New(1)
	req := Request{Path: "vet.ecl", Source: vetSource, Targets: []Target{TargetC}}
	plain := d.BuildOne(req)
	if plain.Failed() || plain.Findings != nil {
		t.Fatalf("plain = (%v, %+v), want success with nil findings", plain.Err, plain.Findings)
	}
	req.Analyze = true
	vet := d.BuildOne(req)
	if vet.Failed() || vet.Cached {
		t.Fatalf("vet = (%v, cached=%t), want a walk", vet.Err, vet.Cached)
	}
	for _, ph := range []pipeline.Phase{pipeline.PhaseEFSM, pipeline.PhaseEmitC} {
		if st := phaseStatus(t, &vet, ph); st != pipeline.StatusMemHit {
			t.Errorf("vet %s = %s, want mem-hit", ph, st)
		}
	}
	if st := analyzeStatus(t, &vet); st != pipeline.StatusRebuilt {
		t.Errorf("vet analyze = %s, want rebuilt", st)
	}
	pure := (&Driver{NoCache: true}).BuildOne(req)
	if pure.Failed() || !slices.Equal(vet.Findings, pure.Findings) || len(vet.Findings) != 1 {
		t.Errorf("findings = %+v, want %+v (one ECL001)", vet.Findings, pure.Findings)
	}
}
