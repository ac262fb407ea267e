package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/analyze"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/eclgen"
	"repro/internal/exec"
	"repro/internal/pipeline"
)

// megaModules is the size of the compile workloads' generated design.
const megaModules = 1000

// megaTargets are eclc's default targets.
var megaTargets = []driver.Target{driver.TargetEsterel, driver.TargetC, driver.TargetGlue, driver.TargetStats}

// buildOut is one in-process `eclc -all` batch and its cache traffic.
type buildOut struct {
	results []driver.Result
	cache   driver.CacheStats
	store   cache.Stats
}

// eclcAll does what `eclc -all [-vet] -cache-dir storeDir path` does
// before writing its outputs (`-no-disk-cache` for an empty storeDir):
// a fresh driver over a fresh handle on the store expands the file into
// one request per module and builds them on the worker pool.
func eclcAll(path, storeDir string, workers int, vet bool) (*buildOut, error) {
	d := driver.New(workers)
	if storeDir != "" {
		store, err := cache.Open(storeDir)
		if err != nil {
			return nil, err
		}
		d.Disk = store
	}
	reqs, err := d.ExpandModules(driver.Request{Path: path, Targets: megaTargets, Analyze: vet})
	if err != nil {
		return nil, err
	}
	results, err := d.Build(context.Background(), reqs)
	out := &buildOut{results: results, cache: d.CacheStats()}
	if d.Disk != nil {
		out.store = d.Disk.Stats()
	}
	return out, err
}

// digestTargets hashes one module's artifacts in target order.
func digestTargets(text func(driver.Target) string) string {
	h := sha256.New()
	for _, t := range megaTargets {
		s := text(t)
		fmt.Fprintf(h, "%s:%d:", t, len(s))
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// artifactDigests maps each module to its artifacts' digest.
func artifactDigests(results []driver.Result) map[string]string {
	out := make(map[string]string, len(results))
	for i := range results {
		arts := results[i].Artifacts
		out[results[i].Module] = digestTargets(func(t driver.Target) string { return arts[t] })
	}
	return out
}

// findingLines lists a batch's findings the way eclc prints them:
// module findings and file findings, deduplicated, sorted.
func findingLines(results []driver.Result) []string {
	seen := map[string]bool{}
	for i := range results {
		for _, f := range append(append([]analyze.Finding(nil), results[i].Findings...), results[i].FileFindings...) {
			seen[f.String()] = true
		}
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return lines
}

// firstFailure reports the first failed request of a batch.
func firstFailure(out *buildOut) error {
	for i := range out.results {
		if out.results[i].Err != nil {
			return fmt.Errorf("module %s: %v", out.results[i].Module, out.results[i].Err)
		}
	}
	return nil
}

func equalDigests(got, want map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d modules built, want %d", len(got), len(want))
	}
	for mod, d := range want {
		if got[mod] != d {
			return fmt.Errorf("module %s: artifacts differ", mod)
		}
	}
	return nil
}

// writeDesign generates the seeded mega-design and writes it where
// eclc would read it.
func writeDesign(dir string, seed int64) (path, src string, err error) {
	src = eclgen.File(seed, megaModules)
	path = filepath.Join(dir, "mega.ecl")
	return path, src, os.WriteFile(path, []byte(src), 0o644)
}

// ---------------------------------------------------------------------------
// mega-cold

// megaCold compiles the whole design with the analyzer, op after op,
// with the driver's and the runner's memory tiers only. Each op creates
// no files: on the file systems this benchmark has run on, the cost of
// creating a file swings by an order of magnitude with the host's load,
// and the 20,000 store files of a cold batch would set the op's time.
// edit-rebuild measures the store.
type megaCold struct {
	cfg       config
	path, src string

	wantArts  map[string]string // op 0's artifacts, per module
	wantFind  []string          // op 0's findings
	diffFails []string          // trace-diff failures of op 0's sample
}

// sampleSize is how many of mega-cold's modules are trace-diffed,
// efsm-table against interp, after the timed ops.
const sampleSize = 8

func (w *megaCold) setupReps() int { return 15 }

func (w *megaCold) setup() error {
	var err error
	w.path, w.src, err = writeDesign(w.cfg.dir, w.cfg.seed)
	return err
}

func (w *megaCold) teardown() {}

func (w *megaCold) measure(deadline time.Time, m *meter) error {
	var out *buildOut
	return runSeq(deadline, m, seqOps{
		op: func(i int) (float64, error) {
			var err error
			out, err = eclcAll(w.path, "", w.cfg.workers, true)
			if err != nil {
				return 0, err
			}
			return float64(len(out.results)), nil
		},
		verify: func(i int) error {
			defer func() { out = nil }()
			return w.verify(i, out)
		},
	})
}

// verify holds every op to op 0: same artifacts, same findings.
func (w *megaCold) verify(i int, out *buildOut) error {
	if err := firstFailure(out); err != nil {
		return err
	}
	arts, find := artifactDigests(out.results), findingLines(out.results)
	if i == 0 {
		if len(arts) != megaModules {
			return fmt.Errorf("%d modules built, want %d", len(arts), megaModules)
		}
		w.wantArts, w.wantFind = arts, find
		w.diffSample(out.results)
		return nil
	}
	if err := equalDigests(arts, w.wantArts); err != nil {
		return err
	}
	if !slices.Equal(find, w.wantFind) {
		return fmt.Errorf("findings differ from op 0 (%d vs %d)", len(find), len(w.wantFind))
	}
	return nil
}

// diffSample trace-diffs a seeded sample of op 0's modules at once,
// so no compiled design outlives the op.
func (w *megaCold) diffSample(results []driver.Result) {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	for k, i := range rng.Perm(len(results))[:sampleSize] {
		if err := traceDiff(results[i].Design, w.cfg.seed+int64(k), 200); err != nil {
			w.diffFails = append(w.diffFails, fmt.Sprintf("trace diff of module %s: %v", results[i].Module, err))
		}
	}
}

func (w *megaCold) check(m *meter) {
	for _, f := range w.diffFails {
		m.fail("%s", f)
	}
}

// traceDiff records the design on efsm-table and on interp, the
// reference, over seeded stimulus, and diffs the two traces.
func traceDiff(d *core.Design, seed int64, n int) error {
	if d == nil {
		return fmt.Errorf("no compiled design")
	}
	ref, err := exec.Open("interp", d)
	if err != nil {
		return err
	}
	instants := randomInstants(rand.New(rand.NewSource(seed)), ref.Inputs(), n)
	want, err := exec.Record(ref, instants)
	if err != nil {
		return err
	}
	tab, err := exec.Open("efsm-table", d)
	if err != nil {
		return err
	}
	got, err := exec.Record(tab, instants)
	if err != nil {
		return err
	}
	return exec.Diff(want, got)
}

func (w *megaCold) traced(deadline time.Time, rec *recorder, m *meter) (layerMetrics, error) {
	return tracedCompile(deadline, rec, m, compileCycle{
		vet:    true,
		stores: func(string) (string, error) { return "", nil },
		real: func(storeDir string) (*buildOut, []*buildOut, error) {
			out, err := eclcAll(w.path, storeDir, 1, true)
			if err == nil {
				err = firstFailure(out)
			}
			return out, []*buildOut{out}, err
		},
		reenact: func(re *reenactment) error { return re.build(w.path, w.src) },
	})
}

// ---------------------------------------------------------------------------
// edit-rebuild

// editRebuild edits one data loop of the built design and rebuilds it
// twice, the second time unchanged, each time as a new eclc process
// would (fresh driver, fresh store handle).
type editRebuild struct {
	cfg       config
	path, src string
	reps      int               // set-ups so far
	store     string            // the store one cold build populated
	files     map[string]bool   // the files that build left in it
	moved     int               // files restore moved out of it
	baseArts  map[string]string // that build's artifacts, per module
	cur       edit
	edited    string
}

func (w *editRebuild) setupReps() int { return 3 }

func (w *editRebuild) setup() error {
	var err error
	if w.path, w.src, err = writeDesign(w.cfg.dir, w.cfg.seed); err != nil {
		return err
	}
	w.reps++
	w.store = filepath.Join(w.cfg.dir, fmt.Sprintf("edit-store-%d", w.reps))
	out, err := eclcAll(w.path, w.store, w.cfg.workers, false)
	if err == nil {
		err = firstFailure(out)
	}
	if err != nil {
		return err
	}
	w.baseArts = artifactDigests(out.results)
	w.files, err = listFiles(w.store)
	return err
}

// listFiles returns the set of files under dir.
func listFiles(dir string) (map[string]bool, error) {
	files := map[string]bool{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files[p] = true
		}
		return err
	})
	return files, err
}

func (w *editRebuild) teardown() {}

// restore moves every file an op added to the populated store (about
// 2,000: v1 manifests and lower snapshots under the edit's new keys)
// out of it, so every op starts from the same store and the store never
// grows. The store's files are only ever replaced by rename, so the
// files the cold build left keep their content.
func (w *editRebuild) restore() error {
	spent := filepath.Join(w.cfg.dir, "spent")
	if err := os.MkdirAll(spent, 0o755); err != nil {
		return err
	}
	return filepath.WalkDir(w.store, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !w.files[p] {
			w.moved++
			err = os.Rename(p, filepath.Join(spent, fmt.Sprint(w.moved)))
		}
		return err
	})
}

// prepare restores the store and makes op i's edit.
func (w *editRebuild) prepare(i int) error {
	if err := w.restore(); err != nil {
		return err
	}
	e, err := pickEdit(w.src, w.cfg.seed, i)
	if err != nil {
		return err
	}
	w.cur, w.edited = e, e.apply(w.src)
	return os.WriteFile(w.path, []byte(w.edited), 0o644)
}

// rebuild is the op: the edit build, then the unchanged build.
func (w *editRebuild) rebuild(workers int) ([]*buildOut, error) {
	var outs []*buildOut
	for k := 0; k < 2; k++ {
		out, err := eclcAll(w.path, w.store, workers, false)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

func (w *editRebuild) measure(deadline time.Time, m *meter) error {
	var outs []*buildOut
	return runSeq(deadline, m, seqOps{
		prepare: w.prepare,
		op: func(i int) (float64, error) {
			var err error
			outs, err = w.rebuild(w.cfg.workers)
			if err != nil {
				return 0, err
			}
			return float64(len(outs[0].results) + len(outs[1].results)), nil
		},
		verify: func(int) error {
			defer func() { outs = nil }()
			return w.verify(outs)
		},
	})
}

// verify checks one op: the edit build replayed every machine and all
// emits but the edited module's, its unedited modules' artifacts match
// the cold build, the edited module's match an uncached compile of the
// edited source, and the unchanged build was served whole from the v1
// manifests with the same artifacts.
func (w *editRebuild) verify(outs []*buildOut) error {
	edit, again := outs[0], outs[1]
	for _, out := range outs {
		if err := firstFailure(out); err != nil {
			return err
		}
	}
	n := int64(len(w.baseArts))
	if c := edit.cache.Phases[pipeline.PhaseEFSM]; c.DiskHits != n || c.Rebuilds != 0 {
		return fmt.Errorf("edit build: efsm phase %d replays, %d rebuilds; want %d, 0", c.DiskHits, c.Rebuilds, n)
	}
	for _, t := range megaTargets {
		ph, _ := pipeline.EmitPhase(string(t))
		if c := edit.cache.Phases[ph]; c.DiskHits != n-1 || c.Rebuilds != 1 {
			return fmt.Errorf("edit build: %s %d replays, %d rebuilds; want %d, 1", ph, c.DiskHits, c.Rebuilds, n-1)
		}
	}
	if again.cache.DiskHits != n {
		return fmt.Errorf("unchanged build: %d v1 manifest hits, want %d", again.cache.DiskHits, n)
	}
	arts := artifactDigests(edit.results)
	want, err := w.uncached()
	if err != nil {
		return err
	}
	if want == w.baseArts[w.cur.Module] {
		return fmt.Errorf("%s: the edit left the module's artifacts unchanged", w.cur)
	}
	wantAll := make(map[string]string, len(w.baseArts))
	for mod, d := range w.baseArts {
		wantAll[mod] = d
	}
	wantAll[w.cur.Module] = want
	if err := equalDigests(arts, wantAll); err != nil {
		return fmt.Errorf("edit build (%s): %v", w.cur, err)
	}
	if err := equalDigests(artifactDigests(again.results), arts); err != nil {
		return fmt.Errorf("unchanged build: %v", err)
	}
	return nil
}

// uncached compiles the edited module from the edited source with every
// cache tier off.
func (w *editRebuild) uncached() (string, error) {
	d := driver.New(1)
	d.NoCache = true
	res := d.BuildOne(driver.Request{Path: w.path, Source: w.edited, Module: w.cur.Module, Targets: megaTargets})
	if res.Err != nil {
		return "", res.Err
	}
	return digestTargets(func(t driver.Target) string { return res.Artifacts[t] }), nil
}

func (w *editRebuild) check(*meter) {}

func (w *editRebuild) traced(deadline time.Time, rec *recorder, m *meter) (layerMetrics, error) {
	cycle := 0
	return tracedCompile(deadline, rec, m, compileCycle{
		// The real op gets the cycle's edit; every run starts from the
		// populated store.
		stores: func(name string) (string, error) {
			if name == "real" {
				return w.store, w.prepare(cycle)
			}
			return w.store, w.restore()
		},
		real: func(string) (*buildOut, []*buildOut, error) {
			outs, err := w.rebuild(1)
			if err == nil {
				err = w.verify(outs)
			}
			cycle++
			if err != nil {
				return nil, nil, err
			}
			return outs[0], outs, nil
		},
		reenact: func(re *reenactment) error {
			for k := 0; k < 2; k++ {
				if err := re.build(w.path, w.edited); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

// ---------------------------------------------------------------------------
// Traced compile runs

// compileCycle describes one traced cycle of a compile workload: the
// real op on one worker, then the same op re-enacted layer by layer,
// once untraced and once traced. stores names (and prepares) a store
// directory for each of the three; real returns the batch whose
// artifacts the re-enactment must reproduce and every batch of the op.
type compileCycle struct {
	vet     bool
	stores  func(name string) (string, error)
	real    func(storeDir string) (*buildOut, []*buildOut, error)
	reenact func(re *reenactment) error
}

// tracedCompile runs cycles until the deadline (at least one). Layer
// times are means over cycles, the remainder and the overhead medians;
// counts come from the first cycle, so they repeat exactly for a seed.
func tracedCompile(deadline time.Time, rec *recorder, m *meter, c compileCycle) (layerMetrics, error) {
	lm := layerMetrics{}
	var unattributed, overhead []float64
	var first *reenactment
	var realMem memDelta
	cycles := 0
	for ; cycles == 0 || time.Now().Before(deadline); cycles++ {
		dir, err := c.stores("real")
		if err != nil {
			return nil, err
		}
		settle()
		runtime.GC()
		before, t0 := readMem(), time.Now()
		ref, outs, err := c.real(dir)
		realMS := msSince(t0)
		after := readMem()
		m.attempted++
		if err != nil {
			m.fail("cycle %d: real op: %v", cycles, err)
			return lm, nil
		}
		if cycles == 0 {
			realMem = diffMem(before, after)
			putCacheMetrics(lm, outs)
		}
		wantArts, wantFind := artifactDigests(ref.results), findingLines(ref.results)
		var plainMS, plainAbsint, tracedMS float64
		for pass, r := range []*recorder{nil, rec} {
			dir, err := c.stores(fmt.Sprintf("reenact-%d", pass))
			if err != nil {
				return nil, err
			}
			re := &reenactment{rec: r, trace: int64(cycles + 1), vet: c.vet}
			if dir != "" {
				if re.store, err = cache.Open(dir); err != nil {
					return nil, err
				}
			}
			settle()
			runtime.GC()
			t0 := time.Now()
			if err := c.reenact(re); err != nil {
				m.fail("cycle %d: re-enactment: %v", cycles, err)
				return lm, nil
			}
			if pass == 0 {
				plainMS, plainAbsint = msSince(t0), float64(re.absintNS)/1e6
				continue
			}
			tracedMS = msSince(t0)
			if err := equalDigests(re.arts, wantArts); err != nil {
				m.fail("cycle %d: re-enactment disagrees with the real op: %v", cycles, err)
			}
			if c.vet && !slices.Equal(re.findings, wantFind) {
				m.fail("cycle %d: re-enactment findings disagree with the real op", cycles)
			}
			if first == nil {
				first = re
			}
		}
		unattributed = append(unattributed, realMS-(plainMS-plainAbsint))
		overhead = append(overhead, (tracedMS-plainMS)/plainMS*100)
	}
	putLayerTimes(lm, rec.snapshot(), float64(cycles))
	realMem.put(lm, 1)
	lm["driver.unattributed_ms"] = median(unattributed)
	lm["trace.overhead_pct"] = median(overhead)
	lm["compile.states"] = float64(first.states)
	lm["compile.transitions"] = float64(first.transitions)
	lm["analyze.findings"] = float64(len(first.findings))
	lm["cgen.kb"] = float64(first.cgenBytes) / 1000
	fmt.Fprintf(os.Stderr, "perfbench: %d traced cycles; real op minus re-enactment %v ms\n", cycles, unattributed)
	return lm, nil
}

// putCacheMetrics records the cache traffic of one op's batches: the
// store's counters (both subtrees), the share of efsm and emit phases
// replayed from a tier, and the v1 manifest hit ratio.
func putCacheMetrics(lm layerMetrics, outs []*buildOut) {
	var hits, misses, puts, replayed, walked, v1Hits, v1Probes int64
	for _, o := range outs {
		hits += o.store.Hits + o.store.PhaseHits
		misses += o.store.Misses + o.store.PhaseMisses
		puts += o.store.Puts + o.store.PhasePuts
		v1Hits += o.cache.DiskHits
		v1Probes += o.cache.DiskHits + o.cache.DiskMisses
		for ph, c := range o.cache.Phases {
			if ph != pipeline.PhaseEFSM && pipeline.TargetName(ph) == "" {
				continue
			}
			served := c.MemHits + c.DiskHits + c.RemoteHits
			replayed += served
			walked += served + c.Rebuilds + c.Failures + c.Shared
		}
	}
	lm["cache.hits"] = float64(hits)
	lm["cache.misses"] = float64(misses)
	lm["cache.puts"] = float64(puts)
	lm["cache.hit_ratio"] = ratio(hits, hits+misses)
	lm["pipeline.replay_ratio"] = ratio(replayed, walked)
	lm["driver.v1_hit_ratio"] = ratio(v1Hits, v1Probes)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
