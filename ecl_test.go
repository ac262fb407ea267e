package ecl

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache/remote"
	"repro/internal/paperex"
)

func TestPublicAPIQuickstart(t *testing.T) {
	prog, err := Parse("abro.ecl", paperex.ABRO, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mods := prog.Modules(); len(mods) != 1 || mods[0] != "abro" {
		t.Fatalf("modules: %v", mods)
	}
	design, err := prog.Compile("abro")
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenMachine("efsm", design)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(map[string]Value{"A": {}}); err != nil {
		t.Fatal(err)
	}
	r, err := m.Step(map[string]Value{"B": {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Outputs["O"]; !ok {
		t.Error("O missing after A then B")
	}
}

func TestPublicAPIBackendsAndTraces(t *testing.T) {
	names := Backends()
	if len(names) < 4 {
		t.Fatalf("backends: %v", names)
	}
	prog, err := Parse("abro.ecl", paperex.ABRO, Options{})
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile("abro")
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenMachine("interp", design)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordTrace(m, []map[string]Value{nil, {"A": {}}, {"B": {}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	other, err := OpenMachine("efsm", design)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayTrace(other, back)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffTraces(back, got); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISession(t *testing.T) {
	prog, err := Parse("abro.ecl", paperex.ABRO, Options{})
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile("abro")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	id, err := s.Open("", "efsm", design)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(id, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(id, map[string]Value{"A": {}}); err != nil {
		t.Fatal(err)
	}
	fork, err := s.Fork(id, "")
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Step(fork, map[string]Value{"B": {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Outputs["O"]; !ok {
		t.Errorf("forked machine lost state: %v", r.Outputs)
	}
}

func TestPublicAPIArtifacts(t *testing.T) {
	prog, err := Parse("stack.ecl", paperex.Stack, Options{})
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile("toplevel")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(design.EsterelText(), "module toplevel:") {
		t.Error("Esterel artifact wrong")
	}
	if !strings.Contains(design.CText(), "toplevel_react") {
		t.Error("C artifact wrong")
	}
	goSrc, err := design.GoText("stack")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(goSrc, "package stack") {
		t.Error("Go artifact wrong")
	}
	if !strings.Contains(design.GlueText(), "ecl_sigval_") {
		t.Error("glue artifact wrong")
	}
	if !strings.Contains(design.DotText(), "digraph") {
		t.Error("DOT artifact wrong")
	}
	// The stack has a data part: hardware synthesis must refuse.
	if _, err := design.VerilogText(); err == nil {
		t.Error("hardware synthesis should fail for a module with data code")
	}
}

func TestPublicAPIHardware(t *testing.T) {
	prog, err := Parse("abro.ecl", paperex.ABRO, Options{})
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile("abro")
	if err != nil {
		t.Fatal(err)
	}
	v, err := design.VerilogText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v, "module abro") {
		t.Error("verilog wrong")
	}
	vh, err := design.VHDLText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vh, "entity abro") {
		t.Error("vhdl wrong")
	}
}

func TestPublicAPIMinimize(t *testing.T) {
	prog, err := Parse("abro.ecl", paperex.ABRO, Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile("abro")
	if err != nil {
		t.Fatal(err)
	}
	if design.Stats().EFSM.States == 0 {
		t.Error("no states after minimize")
	}
}

func TestPublicAPIIncludesAndDefines(t *testing.T) {
	src := `#include "types.h"
module m(input word w, output pure big) {
    while (1) { await (w); if (w > LIMIT) emit (big); }
}`
	prog, err := Parse("m.ecl", src, Options{
		Includes: map[string]string{"types.h": "typedef unsigned short word;\n"},
		Defines:  map[string]string{"LIMIT": "100"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Compile("m"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDriver(t *testing.T) {
	d := NewDriver(4)
	targets, err := ParseTargets("esterel,c")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := ExpandModules(BuildRequest{
		Path: "stack.ecl", Source: paperex.Stack, Targets: targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := d.Build(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4 stack modules", len(results))
	}
	for _, res := range results {
		if res.Failed() {
			t.Fatalf("%s: %v", res.Module, res.Err)
		}
		if !strings.Contains(res.Artifacts[TargetEsterel], "module "+res.Module+":") {
			t.Errorf("%s: esterel artifact wrong", res.Module)
		}
	}
	// Failures surface as structured diagnostics with phases.
	bad := d.BuildOne(BuildRequest{Path: "bad.ecl", Source: "module ("})
	if !bad.Failed() || len(bad.Diags) == 0 || bad.Diags[0].Phase != PhaseParse {
		t.Errorf("bad build: err=%v diags=%+v", bad.Err, bad.Diags)
	}
}

func TestTable1PublicEntry(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Packets = 4
	cfg.Messages = 1
	cfg.SamplesPerMessage = 12
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(FormatTable1(rows), "Stack") {
		t.Error("format broken")
	}
}

func TestPublicAPIDiskCache(t *testing.T) {
	t.Setenv("ECL_CACHE_DIR", t.TempDir())
	if dir, err := CacheDir(); err != nil || dir == "" {
		t.Fatalf("CacheDir: %q, %v", dir, err)
	}
	req := BuildRequest{Path: "abro.ecl", Source: paperex.ABRO, Targets: []Target{TargetC}}
	for pass := 0; pass < 2; pass++ {
		store, err := OpenCache("")
		if err != nil {
			t.Fatal(err)
		}
		d := NewDriver(0)
		d.Disk = store
		res := d.BuildOne(req)
		if res.Failed() {
			t.Fatal(res.Err)
		}
		cs := d.CacheStats()
		if pass == 1 && (!res.DiskCached || cs.DiskHits != 1) {
			t.Fatalf("warm pass: diskCached=%t stats=%+v", res.DiskCached, cs)
		}
	}
	gc, err := GCCache("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One root (design) entry plus the phase snapshots the pipeline
	// stored for it (efsm, emit-c); parse and lower store nothing.
	if gc.LiveEntries != 3 {
		t.Fatalf("GCCache sees %d live entries, want 3 (1 design + 2 phase)", gc.LiveEntries)
	}
}

func TestPublicAPIRemoteCache(t *testing.T) {
	// A real shared tier: the protocol server over its own store.
	backing, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(remote.NewServer(backing))
	defer srv.Close()

	req := BuildRequest{Path: "abro.ecl", Source: paperex.ABRO, Targets: []Target{TargetC}}

	// Machine A compiles and uploads.
	rcA, err := DialRemoteCache(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	dA := NewDriver(0)
	dA.Remote = rcA
	if res := dA.BuildOne(req); res.Failed() || res.Cached {
		t.Fatalf("cold: err=%v cached=%t", res.Err, res.Cached)
	}
	rcA.Close()

	// Machine B is served remotely, visible through the facade stats.
	rcB, err := DialRemoteCache(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rcB.Close()
	dB := NewDriver(0)
	dB.Remote = rcB
	res := dB.BuildOne(req)
	if res.Failed() || !res.RemoteCached {
		t.Fatalf("warm: err=%v remoteCached=%t", res.Err, res.RemoteCached)
	}
	var cs CacheStats = dB.CacheStats()
	if cs.RemoteHits != 1 || cs.Misses != 0 {
		t.Fatalf("stats = %+v, want one remote hit and no compiles", cs)
	}
	var rs RemoteCacheStats = rcB.Stats()
	if rs.Hits != 1 {
		t.Fatalf("client stats = %+v, want one hit", rs)
	}
	if _, err := DialRemoteCache("not a url"); err == nil {
		t.Fatal("DialRemoteCache accepted garbage")
	}
}
