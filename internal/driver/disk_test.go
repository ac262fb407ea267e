package driver

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/eclgen"
	"repro/internal/paperex"
	"repro/internal/pipeline"
)

func diskDriver(t *testing.T, dir string) *Driver {
	t.Helper()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return &Driver{Disk: store}
}

// TestDiskCacheServesSecondProcess is the tentpole contract: a fresh
// Driver (simulating a new process) over a warm store serves artifact
// requests from disk without compiling, byte-identical to the cold
// build, including the decoded stats.
func TestDiskCacheServesSecondProcess(t *testing.T) {
	dir := t.TempDir()
	req := Request{
		Path: "stack.ecl", Source: paperex.Stack, Module: "toplevel",
		Targets: []Target{TargetEsterel, TargetC, TargetGlue, TargetStats},
	}

	cold := diskDriver(t, dir).BuildOne(req)
	if cold.Failed() || cold.DiskCached {
		t.Fatalf("cold build: err=%v diskCached=%t", cold.Err, cold.DiskCached)
	}

	warmDriver := diskDriver(t, dir)
	warm := warmDriver.BuildOne(req)
	if warm.Failed() {
		t.Fatalf("warm build: %v", warm.Err)
	}
	if !warm.Cached || !warm.DiskCached {
		t.Fatalf("warm build not disk-cached: cached=%t diskCached=%t", warm.Cached, warm.DiskCached)
	}
	if warm.Module != "toplevel" {
		t.Errorf("warm module = %q", warm.Module)
	}
	if warm.Design != nil {
		t.Error("artifact-only disk hit must not fabricate a Design")
	}
	for _, target := range req.Targets {
		if warm.Artifacts[target] != cold.Artifacts[target] {
			t.Errorf("%s artifact differs across the process boundary", target)
		}
	}
	if warm.Stats == nil || warm.Stats.EFSM.States != cold.Stats.EFSM.States {
		t.Errorf("disk-cached stats = %+v, want %+v", warm.Stats, cold.Stats)
	}
	cs := warmDriver.CacheStats()
	if cs.DiskHits != 1 || cs.Misses != 0 {
		t.Errorf("warm stats = %+v, want 1 disk hit and no compiles", cs)
	}

	// A third request in the same process replays from memory: no
	// second disk probe.
	again := warmDriver.BuildOne(req)
	if !again.Cached || again.Failed() {
		t.Fatalf("replay: cached=%t err=%v", again.Cached, again.Err)
	}
	cs = warmDriver.CacheStats()
	if cs.DiskHits != 1 || cs.Hits != 1 {
		t.Errorf("replay stats = %+v, want memory hit without a new disk probe", cs)
	}
}

// TestDiskCacheStoresOnlyReadSnapshots: the store keeps a phase
// snapshot only where a later build reads it back. examples/incremental.ecl
// is built, then its data-function edit (acc + 2 -> acc + 7), then the
// edit again unchanged, each by ExpandModules and Build with a fresh
// driver and store handle, like separate eclc -all runs. The store then
// holds no parse or lower entries, the edit build puts exactly the emit
// phases it rebuilt and one root entry per module, and the unchanged
// rebuild, served by those root entries, puts nothing.
func TestDiskCacheStoresOnlyReadSnapshots(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "incremental.ecl"))
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.ReplaceAll(string(src), "acc + 2", "acc + 7") // as the CI dogfood's sed
	if edited == string(src) {
		t.Fatal("examples/incremental.ecl has no acc + 2 to edit")
	}
	dir := t.TempDir()
	build := func(source string) (*Driver, cache.Stats, int64) {
		t.Helper()
		d := diskDriver(t, dir)
		reqs, err := d.ExpandModules(Request{Path: "incremental.ecl", Source: source,
			Targets: []Target{TargetEsterel, TargetC, TargetGlue, TargetStats}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Build(context.Background(), reqs); err != nil {
			t.Fatal(err)
		}
		return d, d.Disk.Stats(), int64(len(reqs))
	}

	build(string(src))
	d, st, modules := build(edited)
	var emitRebuilds int64
	for ph, c := range d.CacheStats().Phases {
		if pipeline.TargetName(ph) != "" {
			emitRebuilds += c.Rebuilds
		}
	}
	if emitRebuilds == 0 || st.PhasePuts != emitRebuilds+modules {
		t.Errorf("edit build put %d phase snapshots for %d emit rebuilds and %d modules; want one each", st.PhasePuts, emitRebuilds, modules)
	}
	d, st, _ = build(edited)
	if st.PhasePuts != 0 {
		t.Errorf("unchanged rebuild put %d phase snapshots, want 0", st.PhasePuts)
	}
	inv, err := d.Disk.PhaseInventory()
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []pipeline.Phase{pipeline.PhaseParse, pipeline.PhaseLower} {
		if n := inv[string(ph)].Entries; n != 0 {
			t.Errorf("store holds %d %s entries, want none", n, ph)
		}
	}
}

// TestDiskCacheResolvesDefaultModule checks a warm hit still resolves
// the "last module in file" convention from the manifest.
func TestDiskCacheResolvesDefaultModule(t *testing.T) {
	dir := t.TempDir()
	req := Request{Path: "buffer.ecl", Source: paperex.Buffer, Targets: []Target{TargetC}}
	if res := diskDriver(t, dir).BuildOne(req); res.Failed() {
		t.Fatal(res.Err)
	}
	warm := diskDriver(t, dir).BuildOne(req)
	if !warm.DiskCached || warm.Module != "bufferctl" {
		t.Fatalf("warm: diskCached=%t module=%q", warm.DiskCached, warm.Module)
	}
}

// TestDiskCacheSkippedWhenDesignNeeded: a request with no targets
// needs the compiled Design, so it must compile even over a warm
// store — and must not count disk traffic.
func TestDiskCacheSkippedWhenDesignNeeded(t *testing.T) {
	dir := t.TempDir()
	if res := diskDriver(t, dir).BuildOne(Request{Path: "abro.ecl", Source: paperex.ABRO,
		Targets: []Target{TargetC}}); res.Failed() {
		t.Fatal(res.Err)
	}
	d := diskDriver(t, dir)
	res := d.BuildOne(Request{Path: "abro.ecl", Source: paperex.ABRO})
	if res.Failed() || res.Design == nil {
		t.Fatalf("simulation build: err=%v design=%v", res.Err, res.Design)
	}
	if res.DiskCached {
		t.Error("no-target build cannot be served from disk")
	}
	cs := d.CacheStats()
	if cs.DiskHits != 0 || cs.DiskMisses != 0 {
		t.Errorf("no-target build touched disk: %+v", cs)
	}
}

// TestDiskCacheMissOnDifferentOptions: the content hash covers
// pipeline options, so an option change over a warm store recompiles.
func TestDiskCacheMissOnDifferentOptions(t *testing.T) {
	dir := t.TempDir()
	req := Request{Path: "abro.ecl", Source: paperex.ABRO, Targets: []Target{TargetC}}
	if res := diskDriver(t, dir).BuildOne(req); res.Failed() {
		t.Fatal(res.Err)
	}
	min := req
	min.Options.Minimize = true
	d := diskDriver(t, dir)
	res := d.BuildOne(min)
	if res.Failed() {
		t.Fatal(res.Err)
	}
	if res.DiskCached {
		t.Error("minimized build served from unminimized cache entry")
	}
	if cs := d.CacheStats(); cs.DiskMisses != 1 {
		t.Errorf("want 1 disk miss, got %+v", cs)
	}
}

// TestDiskCacheDisabledByNoCache: NoCache turns off both tiers.
func TestDiskCacheDisabledByNoCache(t *testing.T) {
	dir := t.TempDir()
	req := Request{Path: "abro.ecl", Source: paperex.ABRO, Targets: []Target{TargetC}}
	if res := diskDriver(t, dir).BuildOne(req); res.Failed() {
		t.Fatal(res.Err)
	}
	d := diskDriver(t, dir)
	d.NoCache = true
	res := d.BuildOne(req)
	if res.Failed() || res.Cached || res.DiskCached {
		t.Fatalf("NoCache build: err=%v cached=%t diskCached=%t", res.Err, res.Cached, res.DiskCached)
	}
	if cs := d.CacheStats(); cs.DiskHits != 0 || cs.DiskMisses != 0 {
		t.Errorf("NoCache build touched disk: %+v", cs)
	}
}

// TestDiskCacheGoPackageKeying: the same design emitted for two Go
// package names yields distinct cached artifacts.
func TestDiskCacheGoPackageKeying(t *testing.T) {
	dir := t.TempDir()
	base := Request{Path: "abro.ecl", Source: paperex.ABRO, Targets: []Target{TargetGo}}
	pkga, pkgb := base, base
	pkga.GoPackage = "alpha"
	pkgb.GoPackage = "beta"
	d := diskDriver(t, dir)
	ra, rb := d.BuildOne(pkga), d.BuildOne(pkgb)
	if ra.Failed() || rb.Failed() {
		t.Fatal(ra.Err, rb.Err)
	}
	d2 := diskDriver(t, dir)
	wa, wb := d2.BuildOne(pkga), d2.BuildOne(pkgb)
	if !wa.DiskCached || !wb.DiskCached {
		t.Fatalf("warm: diskCached=%t/%t", wa.DiskCached, wb.DiskCached)
	}
	if wa.Artifacts[TargetGo] != ra.Artifacts[TargetGo] || wb.Artifacts[TargetGo] != rb.Artifacts[TargetGo] {
		t.Error("Go artifacts differ across the process boundary")
	}
	if wa.Artifacts[TargetGo] == wb.Artifacts[TargetGo] {
		t.Error("distinct Go packages shared one cached artifact")
	}
}

// TestBuildCancelKeepsServedResults cancels a one-worker Build while
// it compiles the second of three requests. The first was served whole
// by a disk root entry, so its Result carries no Design; it must still
// come back as served, and only the request no worker took fails with
// the context error.
func TestBuildCancelKeepsServedResults(t *testing.T) {
	dir := t.TempDir()
	abro := Request{Path: "abro.ecl", Source: paperex.ABRO, Targets: []Target{TargetC}}
	if res := diskDriver(t, dir).BuildOne(abro); res.Failed() {
		t.Fatal(res.Err)
	}
	mega, err := ExpandModules(Request{Path: "mega.ecl", Source: eclgen.File(1, 300)})
	if err != nil {
		t.Fatal(err)
	}

	d := diskDriver(t, dir)
	d.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for ctx.Err() == nil && d.CacheStats().DiskHits < 1 {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	res, err := d.Build(ctx, []Request{abro, mega[len(mega)-1], abro})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Build error = %v, want the context error", err)
	}
	if res[0].Failed() || !res[0].DiskCached {
		t.Errorf("first request: err=%v diskCached=%t, want served from disk", res[0].Err, res[0].DiskCached)
	}
	if !errors.Is(res[2].Err, context.Canceled) {
		t.Errorf("third request: err=%v, want the context error", res[2].Err)
	}
}
