package driver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/eclgen"
	"repro/internal/pipeline"
)

// incSource is the incremental fixture: the inner while loop is a pure
// data loop (extracted as a data function), and factor appears only in
// its body, so varying factor is a data-function-only edit.
func incSource(factor int) string {
	return fmt.Sprintf(`
module incworker (input pure a, input pure b, input int req,
                  output int done, output pure pulse)
{
    int acc;
    int n;
    acc = 0;
    par {
        while (1) {
            await (a);
            emit (pulse);
        }
        while (1) {
            await (b);
            emit (pulse);
        }
        while (1) {
            await (req);
            n = 0;
            while (n < 6) {
                acc = acc + %d;
                n = n + 1;
            }
            emit_v (done, acc);
        }
    }
}
`, factor)
}

func phaseStatus(t *testing.T, res *Result, ph pipeline.Phase) pipeline.Status {
	t.Helper()
	for _, pr := range res.Phases {
		if pr.Phase == ph {
			return pr.Status
		}
	}
	t.Fatalf("phase %s not in result (phases: %+v)", ph, res.Phases)
	return ""
}

// TestIncrementalDataEditReplaysEFSM is the PR's acceptance criterion
// at the driver level: over a warm store, editing only a data-function
// body re-runs the front end and emission but replays the cached EFSM
// phase, asserted on Result.Phases and CacheStats().Phases — and the
// artifacts are byte-identical to an uncached compile of the edited
// source.
func TestIncrementalDataEditReplaysEFSM(t *testing.T) {
	dir := t.TempDir()
	targets := []Target{TargetC, TargetEsterel, TargetStats}

	cold := diskDriver(t, dir).BuildOne(Request{
		Path: "inc.ecl", Source: incSource(3), Targets: targets,
	})
	if cold.Failed() {
		t.Fatal(cold.Err)
	}
	if st := phaseStatus(t, &cold, pipeline.PhaseEFSM); st != pipeline.StatusRebuilt {
		t.Fatalf("cold efsm = %s, want rebuilt", st)
	}

	// New process, data-edited source: the root key misses, but the
	// efsm phase replays from the phase store.
	warm := diskDriver(t, dir)
	res := warm.BuildOne(Request{Path: "inc.ecl", Source: incSource(5), Targets: targets})
	if res.Failed() {
		t.Fatal(res.Err)
	}
	if res.Cached || res.DiskCached {
		t.Fatalf("edited build reported design-cached (cached=%t disk=%t)", res.Cached, res.DiskCached)
	}
	if st := phaseStatus(t, &res, pipeline.PhaseEFSM); st != pipeline.StatusDiskHit {
		t.Errorf("edited efsm = %s, want disk-hit", st)
	}
	for _, ph := range []pipeline.Phase{pipeline.PhaseParse, pipeline.PhaseSem, pipeline.PhaseLower, pipeline.PhaseEmitC} {
		if st := phaseStatus(t, &res, ph); st != pipeline.StatusRebuilt {
			t.Errorf("edited %s = %s, want rebuilt", ph, st)
		}
	}
	cs := warm.CacheStats()
	if got := cs.Phases[pipeline.PhaseEFSM]; got.DiskHits != 1 || got.Rebuilds != 0 {
		t.Errorf("PhaseStats[efsm] = %+v, want exactly 1 disk hit and no rebuilds", got)
	}
	if got := cs.Phases[pipeline.PhaseEmitC]; got.Rebuilds != 1 {
		t.Errorf("PhaseStats[emit-c] = %+v, want 1 rebuild", got)
	}

	// Replayed-machine artifacts must match a fully uncached compile
	// of the edited source.
	pure := (&Driver{NoCache: true}).BuildOne(Request{Path: "inc.ecl", Source: incSource(5), Targets: targets})
	if pure.Failed() {
		t.Fatal(pure.Err)
	}
	for _, target := range targets {
		if res.Artifacts[target] != pure.Artifacts[target] {
			t.Errorf("%s artifact from replayed EFSM differs from uncached compile", target)
		}
	}
	if res.Stats == nil || pure.Stats == nil || res.Stats.EFSM.States != pure.Stats.EFSM.States {
		t.Errorf("stats differ: %+v vs %+v", res.Stats, pure.Stats)
	}
}

// TestDesignCacheReportsPseudoPhase: requests served whole by the root
// entry carry the one "design" phase instead of a fake per-phase
// table.
func TestDesignCacheReportsPseudoPhase(t *testing.T) {
	dir := t.TempDir()
	req := Request{Path: "inc.ecl", Source: incSource(3), Targets: []Target{TargetC}}
	if res := diskDriver(t, dir).BuildOne(req); res.Failed() {
		t.Fatal(res.Err)
	}
	warm := diskDriver(t, dir)
	res := warm.BuildOne(req)
	if !res.DiskCached {
		t.Fatal("expected a root disk hit")
	}
	if len(res.Phases) != 1 || res.Phases[0].Phase != pipeline.PhaseDesign ||
		res.Phases[0].Status != pipeline.StatusDiskHit {
		t.Errorf("Phases = %+v, want one design/disk-hit entry", res.Phases)
	}
	again := warm.BuildOne(req)
	if len(again.Phases) != 1 || again.Phases[0].Status != pipeline.StatusMemHit {
		t.Errorf("memory replay Phases = %+v, want one design/mem-hit entry", again.Phases)
	}
}

// TestExpandModulesStructuredDiagnostics: a malformed file mixed into
// a batch reports file/phase diagnostics through ExpandModules instead
// of a bare error.
func TestExpandModulesStructuredDiagnostics(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ecl")
	if err := os.WriteFile(bad, []byte("module broken ( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ExpandModules(Request{Path: bad})
	if err == nil {
		t.Fatal("want error for malformed file")
	}
	var xe *ExpandError
	if !errors.As(err, &xe) {
		t.Fatalf("error is %T, want *ExpandError", err)
	}
	if len(xe.Diags) == 0 {
		t.Fatal("no diagnostics")
	}
	d := xe.Diags[0]
	if d.File != bad || d.Phase != PhaseParse {
		t.Errorf("diag = %+v, want file=%s phase=parse", d, bad)
	}
	if !strings.HasPrefix(d.Pos, bad+":") {
		t.Errorf("diag position %q does not name the file", d.Pos)
	}
	if !strings.Contains(err.Error(), "[parse]") {
		t.Errorf("error text %q lacks the phase tag", err.Error())
	}

	// Unreadable file: read-phase diagnostic.
	_, err = ExpandModules(Request{Path: filepath.Join(dir, "missing.ecl")})
	if !errors.As(err, &xe) || xe.Diags[0].Phase != PhaseRead {
		t.Errorf("missing file error = %v, want read-phase ExpandError", err)
	}

	// Empty (module-less) file: parse-phase diagnostic.
	empty := filepath.Join(dir, "empty.ecl")
	if err := os.WriteFile(empty, []byte("typedef int t;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ExpandModules(Request{Path: empty})
	if !errors.As(err, &xe) || xe.Diags[0].Phase != PhaseParse {
		t.Errorf("empty file error = %v, want parse-phase ExpandError", err)
	}
}

// TestUnchangedRebuildIsOneRootHit: an unchanged rebuild in a new
// process is one root disk hit per module — one design phase in
// Result.Phases, one phase hit in the store's counters and no other
// read — with the cold build's artifacts. The cold build's root entries
// reference the emit phases' blobs and add none of their own.
func TestUnchangedRebuildIsOneRootHit(t *testing.T) {
	dir := t.TempDir()
	src := eclgen.File(5, 8)
	build := func() (*Driver, []Result) {
		t.Helper()
		d := diskDriver(t, dir)
		reqs, err := d.ExpandModules(Request{Path: "mega.ecl", Source: src,
			Targets: []Target{TargetEsterel, TargetC, TargetGlue, TargetStats}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Build(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		return d, res
	}
	_, cold := build()
	n := int64(len(cold))

	roots, refs := 0, map[string]bool{}
	for _, m := range readManifests(t, dir) {
		if m.Phase == cache.DesignPhase {
			roots++
			continue
		}
		for _, h := range m.Blobs {
			refs[h] = true
		}
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "v2", "blobs", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if roots != len(cold) || len(blobs) != len(refs) {
		t.Errorf("cold build stored %d root entries for %d modules and %d blobs for %d phase-referenced hashes",
			roots, len(cold), len(blobs), len(refs))
	}

	d, warm := build()
	for i := range warm {
		r := &warm[i]
		if !r.DiskCached || len(r.Phases) != 1 || r.Phases[0].Phase != pipeline.PhaseDesign || r.Phases[0].Status != pipeline.StatusDiskHit {
			t.Fatalf("%s: diskCached=%t phases %+v, want one design disk hit", r.Module, r.DiskCached, r.Phases)
		}
		if r.Module != cold[i].Module || !maps.Equal(r.Artifacts, cold[i].Artifacts) || *r.Stats != *cold[i].Stats {
			t.Errorf("%s: root entry differs from the cold build", r.Module)
		}
	}
	if cs := d.CacheStats(); cs.DiskHits != n || cs.DiskMisses != 0 || cs.Misses != 0 {
		t.Errorf("driver stats %+v, want %d root disk hits and no walk", cs, n)
	}
	if st := d.Disk.Stats(); st.PhaseHits != n || st.PhaseMisses != 0 || st.Hits+st.Misses != 0 || st.PhasePuts != 0 {
		t.Errorf("store stats %+v, want %d phase hits and nothing else", st, n)
	}
}

// manifestFile is the part of a stored manifest the tests read.
type manifestFile struct {
	Phase  string
	Module string
	Blobs  map[string]string
}

// readManifests decodes every manifest of the store at dir.
func readManifests(t *testing.T, dir string) []manifestFile {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "v2", "manifests", "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []manifestFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var m manifestFile
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestLegacyV1StoreIsIgnoredAndSwept: a store written by an older build
// holds its whole-design entries in a v1/ subtree and no root entries.
// A build over it gets a cold root — the v1 manifest, though keyed and
// shaped as the older build wrote it, is never read — while its phase
// entries still hit; Size leaves v1/ out, and GC removes it whole.
func TestLegacyV1StoreIsIgnoredAndSwept(t *testing.T) {
	dir := t.TempDir()
	req := Request{Path: "inc.ecl", Source: incSource(3), Targets: []Target{TargetC}}
	cold := diskDriver(t, dir).BuildOne(req)
	if cold.Failed() {
		t.Fatal(cold.Err)
	}
	// Back to the older layout: drop the root entry, add the v1 one.
	root := pipeline.KeyDesign(pipeline.KeyParse(req.Path, req.Source, req.Options), req.Module, req.Options, emitPhases(req.Targets), req.GoPackage)
	if err := os.Remove(filepath.Join(dir, "v2", "manifests", root[:2], root+".json")); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "gen:%d", 2)
	for _, part := range []string{pipeline.KeyParse(req.Path, req.Source, req.Options), req.Module, "pol:0:min:false", "cmp:0:0:0"} {
		fmt.Fprintf(h, "\x00%d:%s", len(part), part)
	}
	v1Key := hex.EncodeToString(h.Sum(nil))
	sum := sha256.Sum256([]byte(cold.Artifacts[TargetC]))
	blob := hex.EncodeToString(sum[:])
	manifest := fmt.Sprintf(`{"version":1,"key":%q,"module":"incworker","artifacts":{"c":%q}}`, v1Key, blob)
	for path, data := range map[string]string{
		filepath.Join(dir, "v1", "manifests", v1Key[:2], v1Key+".json"): manifest,
		filepath.Join(dir, "v1", "blobs", blob[:2], blob):               cold.Artifacts[TargetC],
	} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d := diskDriver(t, dir)
	_, before, err := d.Disk.Size()
	if err != nil {
		t.Fatal(err)
	}
	res := d.BuildOne(req)
	if res.Failed() || res.Cached {
		t.Fatalf("build over the older store = (%v, cached=%t), want a walk", res.Err, res.Cached)
	}
	if cs := d.CacheStats(); cs.DiskMisses != 1 || cs.DiskHits != 0 {
		t.Errorf("root disk traffic %+v, want one miss", cs)
	}
	if st := phaseStatus(t, &res, pipeline.PhaseEFSM); st != pipeline.StatusDiskHit {
		t.Errorf("efsm = %s, want disk-hit", st)
	}
	if res.Artifacts[TargetC] != cold.Artifacts[TargetC] {
		t.Error("artifact differs from the cold build")
	}
	if _, after, err := d.Disk.Size(); err != nil || after != before+1 {
		t.Errorf("Size counts %d entries after storing one root entry over %d (%v); v1/ must not count", after, before, err)
	}
	want := int64(len(manifest) + len(cold.Artifacts[TargetC]))
	if gc, err := d.Disk.GC(0, 0); err != nil || gc.FreedBytes != want {
		t.Fatalf("GC freed %d bytes (%v), want the v1 subtree's %d", gc.FreedBytes, err, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "v1")); !os.IsNotExist(err) {
		t.Errorf("v1/ survived GC (stat: %v)", err)
	}
}
