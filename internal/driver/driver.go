// Package driver orchestrates the ECL compilation pipeline for many
// modules at once. It is the one place that wires up the paper's flow
// — parse, analyze, split into reactive + data parts, compile to an
// EFSM, emit artifacts — so the command-line tools (eclc, eclsim,
// eclbench) and library users all share the same entry point instead
// of replumbing the phases by hand.
//
// A Driver runs a batch of Requests over a bounded worker pool,
// deduplicates work through a content-hash keyed design cache (repeated
// builds of unchanged sources are near-free), and reports failures as
// structured Diagnostics carrying the file, module, and pipeline phase
// instead of bare error strings.
package driver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analyze"
	"repro/internal/cache"
	"repro/internal/cache/remote"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/source"
)

// Phase names the pipeline stage a diagnostic originated in.
type Phase string

// Pipeline phases, in flow order.
const (
	// PhaseRead covers loading source text from disk.
	PhaseRead Phase = "read"
	// PhaseParse covers preprocessing, parsing, and semantic analysis
	// (the front end up to a checked AST).
	PhaseParse Phase = "parse"
	// PhaseLower covers the reactive/data split into the Esterel
	// kernel (including module selection).
	PhaseLower Phase = "lower"
	// PhaseCompile covers EFSM construction and minimization.
	PhaseCompile Phase = "compile"
	// PhaseEmit covers back-end artifact generation.
	PhaseEmit Phase = "emit"
)

// Diagnostic is one structured build message: where it happened (file,
// module, position), in which phase, and what went wrong.
type Diagnostic struct {
	File     string
	Module   string
	Phase    Phase
	Pos      string // "file:line:col" when known, else ""
	Severity source.Severity
	Message  string
}

// String renders the diagnostic in a grep-friendly single line.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Pos != "" {
		b.WriteString(d.Pos)
	} else {
		b.WriteString(d.File)
	}
	if d.Module != "" {
		fmt.Fprintf(&b, ": module %s", d.Module)
	}
	fmt.Fprintf(&b, ": [%s] %s: %s", d.Phase, d.Severity, d.Message)
	return b.String()
}

// Request asks for one module to be compiled to a set of targets.
type Request struct {
	// Path is the source file path; it is read from disk when Source
	// is empty, and otherwise used only as the display name.
	Path string
	// Source is the ECL source text (optional; see Path).
	Source string
	// Module selects the module to compile; empty means the last
	// module declared in the file (the eclc convention).
	Module string
	// Targets lists the artifacts to emit; empty compiles the design
	// without emitting anything (useful for simulation and stats-free
	// builds).
	Targets []Target
	// GoPackage is the package name for TargetGo (default: the module
	// name).
	GoPackage string
	// Options configures the pipeline (splitter policy, preprocessor
	// tables, EFSM bounds, minimization).
	Options core.Options
	// Analyze runs the static-analysis phase over the compiled design
	// and fills Result.Findings. Requests with Analyze set always walk
	// the phase graph (the design-level artifact tiers store rendered
	// outputs, not findings), so the analyze phase itself can report a
	// cache hit or rebuild of its own.
	Analyze bool
}

// Result reports one request's outcome. Artifacts maps each requested
// target to its rendered text; Design exposes the compiled module for
// callers that want to simulate or inspect it; Diags carries
// structured failure information when Err is non-nil.
//
// A result served entirely from the persistent artifact cache
// (DiskCached) carries the artifacts and stats but a nil Design: the
// disk tier stores rendered outputs, not compiled intermediate state.
// Requests with no targets always compile, so they always get a
// Design.
type Result struct {
	Path   string
	Module string // resolved module name (never empty on success)

	Artifacts map[Target]string
	Stats     *core.Stats
	Design    *core.Design

	// Findings holds the static-analysis diagnostics (nil unless the
	// request set Analyze; non-nil but possibly empty when it ran).
	Findings []analyze.Finding

	// FileFindings holds the design-level diagnostics for the request's
	// whole file (the analyze-file phase). Every module request of the
	// same file carries the same findings; batch callers dedup before
	// printing.
	FileFindings []analyze.Finding

	// Phases records how each pipeline phase was satisfied for this
	// request. A request that ran the pipeline carries one entry per
	// phase walked (parse ... emit); a request served entirely from
	// the design-level cache carries a single pseudo-phase entry
	// (pipeline.PhaseDesign) naming the tier that served it.
	Phases []pipeline.PhaseResult

	Diags        []Diagnostic
	Err          error
	Cached       bool // served without recompiling (any cache tier)
	DiskCached   bool // served from the persistent on-disk tier
	RemoteCached bool // served from the shared remote tier
}

// Failed reports whether the request produced an error.
func (r *Result) Failed() bool { return r.Err != nil }

// Driver runs batches of compilation requests. The zero value is ready
// to use: it sizes its worker pool to GOMAXPROCS and caches compiled
// designs by content hash. A Driver is safe for concurrent use.
//
// The cache has up to three tiers: an in-memory map (designs plus
// rendered artifacts, single-flight per content hash), a persistent
// content-addressed artifact store shared across processes (Disk), and
// a shared remote cache server (Remote) the whole fleet populates. A
// request is served memory → disk → remote → compile; a remote hit is
// written through to the local disk tier, and fresh compiles
// repopulate every tier (the remote upload is asynchronous and
// best-effort).
type Driver struct {
	// Workers sizes Build's fixed pool of goroutines, each building
	// one request at a time (default: GOMAXPROCS).
	Workers int
	// NoCache disables every cache tier (every request recompiles).
	NoCache bool
	// NoShare disables the file-level shared front end: every request
	// re-parses and re-analyzes its file instead of reusing the
	// per-file compilation unit. Orthogonal to NoCache; exists for the
	// per-module baseline in benchmarks and for bisecting sharing bugs.
	NoShare bool
	// Disk is the persistent second cache tier (nil: memory only).
	// Only requests with targets use it — the disk tier stores
	// rendered artifacts, so a request that needs the compiled Design
	// itself (no targets) always goes through the compiler.
	Disk *cache.Store
	// Remote is the shared third cache tier (nil: none): an HTTP
	// content-addressed cache server (eclcached) dialed with
	// remote.Dial. Like Disk it serves rendered artifacts only.
	Remote *remote.Client

	mu      sync.Mutex
	entries map[string]*cacheEntry
	pipe    *pipeline.Runner
	hits    atomic.Int64
	misses  atomic.Int64
}

// runner returns the per-driver phase-graph runner, created on first
// use with the driver's disk store and cache mode.
func (d *Driver) runner() *pipeline.Runner {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pipe == nil {
		d.pipe = &pipeline.Runner{Disk: d.Disk, NoCache: d.NoCache, NoShare: d.NoShare}
		if d.Remote != nil {
			// Assigned only when non-nil: a typed nil inside the Tier
			// interface would defeat the runner's nil checks.
			d.pipe.Remote = d.Remote
		}
	}
	return d.pipe
}

// New returns a Driver with the given worker-pool size (<= 0 means
// GOMAXPROCS).
func New(workers int) *Driver { return &Driver{Workers: workers} }

// PhaseStats aggregates per-phase cache traffic (hit/miss/rebuilt per
// pipeline phase) across a driver's builds.
type PhaseStats = pipeline.PhaseStats

// CacheStats snapshots both cache tiers' traffic.
type CacheStats struct {
	// Hits and Misses count the in-memory tier: a hit is any request
	// served without compiling and without touching disk; a miss is a
	// compile.
	Hits, Misses int64
	// DiskHits, DiskMisses, and DiskEvictions count the persistent
	// tier's whole-design (v1) manifests (all zero when the driver has
	// no Disk store).
	DiskHits, DiskMisses, DiskEvictions int64
	// RemoteHits and RemoteMisses count the shared remote tier's
	// whole-design probes; RemoteUploads counts entries (design and
	// phase) successfully pushed to it, RemoteErrors its degraded reads
	// and failed uploads (all zero when the driver has no Remote
	// client).
	RemoteHits, RemoteMisses, RemoteUploads, RemoteErrors int64
	// Phases breaks pipeline traffic down per phase: how often each
	// phase was replayed from memory, the v2 phase store, or the remote
	// tier versus rebuilt. Requests served entirely from the
	// design-level tiers do not appear here (they are counted by
	// Hits/DiskHits/RemoteHits).
	Phases PhaseStats
}

// CacheStats reports cache traffic so far across all tiers.
func (d *Driver) CacheStats() CacheStats {
	cs := CacheStats{Hits: d.hits.Load(), Misses: d.misses.Load()}
	if d.Disk != nil {
		st := d.Disk.Stats()
		cs.DiskHits, cs.DiskMisses, cs.DiskEvictions = st.Hits, st.Misses, st.Evictions
	}
	if d.Remote != nil {
		st := d.Remote.Stats()
		cs.RemoteHits, cs.RemoteMisses = st.Hits, st.Misses
		cs.RemoteUploads, cs.RemoteErrors = st.Uploads, st.Errors
	}
	d.mu.Lock()
	pipe := d.pipe
	d.mu.Unlock()
	if pipe != nil {
		cs.Phases = pipe.Stats()
	} else {
		cs.Phases = PhaseStats{}
	}
	return cs
}

// Build compiles every request concurrently and returns one Result per
// request, in request order. A fixed pool of min(Workers, len(reqs))
// goroutines takes the requests in order, each building one at a time,
// so a worker's stack, once grown by the deep pipeline frames, serves
// every later request. Per-request failures are reported in the Results
// (and joined into the returned error); a cancelled context marks the
// remaining requests failed with the context error.
func (d *Driver) Build(ctx context.Context, reqs []Request) ([]Result, error) {
	results := make([]Result, len(reqs))
	workers := d.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(reqs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				results[i] = d.buildOne(reqs[i])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Err == nil && results[i].Design == nil {
				results[i] = Result{Path: reqs[i].Path, Module: reqs[i].Module, Err: err}
			}
		}
	}
	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", describe(&results[i]), results[i].Err))
		}
	}
	return results, errors.Join(errs...)
}

// BuildOne compiles a single request synchronously.
func (d *Driver) BuildOne(req Request) Result { return d.buildOne(req) }

func describe(r *Result) string {
	if r.Module != "" {
		return r.Path + ":" + r.Module
	}
	return r.Path
}

// buildOne runs the full pipeline for one request, consulting the
// cache tiers first: memory (design or previously loaded artifacts),
// then the persistent artifact store, then a real compile.
func (d *Driver) buildOne(req Request) Result {
	res := Result{Path: req.Path, Module: req.Module}

	src := req.Source
	if src == "" {
		data, err := os.ReadFile(req.Path)
		if err != nil {
			res.Err = err
			res.Diags = []Diagnostic{{
				File: req.Path, Phase: PhaseRead,
				Severity: source.Error, Message: err.Error(),
			}}
			return res
		}
		src = string(data)
	}

	var key string
	var entry *cacheEntry
	if d.NoCache {
		entry = &cacheEntry{}
	} else {
		key = cacheKey(req.Path, src, req.Module, req.Options)
		entry = d.entry(key)
	}
	want := wantKeys(req.Targets, req.GoPackage)

	// Memory tier, artifact replay: a previous request (possibly a
	// disk hit) already holds every artifact this one needs, so serve
	// it without compiling even though no Design is cached. Analyze
	// requests skip the design-level tiers entirely — findings live in
	// the phase store, so the phase graph must be walked (its own
	// analyze snapshot makes the warm path cheap).
	if len(want) > 0 && !entry.hasDesign.Load() && !req.Analyze {
		if module, arts, ok := entry.replay(want); ok {
			d.hits.Add(1)
			res.Cached = true
			res.Phases = designPhases(pipeline.StatusMemHit, key)
			fillFromArtifacts(&res, req, module, arts)
			return res
		}
		// Disk tier. Only consulted when the memory tier cannot serve
		// the request, so every Get here is a real cross-process probe.
		if d.Disk != nil && !d.NoCache {
			if ce, ok := d.Disk.Get(key, want); ok {
				if tryFillFromArtifacts(&res, req, ce.Module, ce.Artifacts) {
					res.Cached, res.DiskCached = true, true
					res.Phases = designPhases(pipeline.StatusDiskHit, key)
					entry.absorb(ce.Module, ce.Artifacts)
					return res
				}
				// Undecodable stats blob etc.: fall through to compile.
				res = Result{Path: req.Path, Module: req.Module}
			}
		}
		// Remote tier: the shared fleet cache, tried only after both
		// local tiers miss. A hit is written through to the local disk
		// store so the next process on this machine stays off the
		// network.
		if d.Remote != nil && !d.NoCache {
			if ce, ok := d.Remote.Get(key, want); ok {
				if tryFillFromArtifacts(&res, req, ce.Module, ce.Artifacts) {
					res.Cached, res.RemoteCached = true, true
					res.Phases = designPhases(pipeline.StatusRemoteHit, key)
					if d.Disk != nil {
						d.Disk.Put(key, ce) // best-effort read-through
					}
					entry.absorb(ce.Module, ce.Artifacts)
					return res
				}
				res = Result{Path: req.Path, Module: req.Module}
			}
		}
	}

	built := false
	entry.once.Do(func() {
		built = true
		d.misses.Add(1)
		d.compileEntry(entry, req, src)
		entry.hasDesign.Store(true)
	})
	if built {
		res.Phases = entry.phases
	} else {
		d.hits.Add(1)
		res.Cached = true
		res.Phases = designPhases(pipeline.StatusMemHit, key)
	}
	if entry.module != "" {
		res.Module = entry.module
	}
	if entry.err != nil {
		res.Err = entry.err
		res.Diags = entry.diags
		return res
	}
	res.Design = entry.design
	if req.Analyze {
		findings, fileFindings, ran := entry.analyzeFindings()
		res.Findings = findings
		res.FileFindings = fileFindings
		if !built && ran {
			// The entry was compiled by an earlier, analyze-less request;
			// this one ran the rules over the memoized design just now.
			res.Phases = append(res.Phases, pipeline.PhaseResult{
				Phase: pipeline.PhaseAnalyze, Status: pipeline.StatusRebuilt,
			})
		}
	}

	if len(req.Targets) > 0 {
		res.Artifacts = make(map[Target]string, len(req.Targets))
		for _, t := range req.Targets {
			text, err := entry.artifact(t, req.GoPackage)
			if err != nil {
				res.Err = err
				res.Diags = append(res.Diags, Diagnostic{
					File: req.Path, Module: res.Module, Phase: PhaseEmit,
					Severity: source.Error,
					Message:  fmt.Sprintf("target %s: %v", t, err),
				})
				return res
			}
			res.Artifacts[t] = text
		}
		if _, ok := res.Artifacts[TargetStats]; ok {
			st := entry.design.Stats()
			res.Stats = &st
		}
		if (d.Disk != nil || d.Remote != nil) && !d.NoCache {
			d.persist(key, entry, req, &res)
		}
	}
	return res
}

// wantKeys lists the artifact-cache keys a request needs: one per
// target, plus the machine-readable stats blob when the stats target
// is requested (so a disk hit can fill Result.Stats).
func wantKeys(targets []Target, goPkg string) []string {
	if len(targets) == 0 {
		return nil
	}
	keys := make([]string, 0, len(targets)+1)
	for _, t := range targets {
		keys = append(keys, artifactKey(t, goPkg))
		if t == TargetStats {
			keys = append(keys, statsJSONKey)
		}
	}
	return keys
}

// fillFromArtifacts populates a successful artifact-only result.
func fillFromArtifacts(res *Result, req Request, module string, arts map[string]string) {
	if !tryFillFromArtifacts(res, req, module, arts) {
		// The artifacts were validated when they entered the memory
		// tier, so decoding cannot fail here; guard anyway.
		panic("driver: cached artifacts failed to decode")
	}
}

// tryFillFromArtifacts populates a result from raw cached artifacts,
// reporting false (leaving res partially filled) if the stats blob
// does not decode.
func tryFillFromArtifacts(res *Result, req Request, module string, arts map[string]string) bool {
	res.Module = module
	res.Artifacts = make(map[Target]string, len(req.Targets))
	for _, t := range req.Targets {
		res.Artifacts[t] = arts[artifactKey(t, req.GoPackage)]
		if t == TargetStats {
			var st core.Stats
			if err := json.Unmarshal([]byte(arts[statsJSONKey]), &st); err != nil {
				return false
			}
			res.Stats = &st
		}
	}
	return true
}

// persist writes this request's freshly rendered artifacts to the
// persistent tiers: the local disk store (merging with whatever the
// key already has) and, when configured, the shared remote tier (an
// asynchronous best-effort upload inside the client). Keys already
// persisted by this process are skipped, so warm rebuild loops do not
// rewrite the store every iteration.
func (d *Driver) persist(key string, entry *cacheEntry, req Request, res *Result) {
	want := wantKeys(req.Targets, req.GoPackage)
	if entry.allStored(want) {
		return
	}
	arts := make(map[string]string, len(want))
	for _, t := range req.Targets {
		arts[artifactKey(t, req.GoPackage)] = res.Artifacts[t]
	}
	if res.Stats != nil {
		data, err := json.Marshal(res.Stats)
		if err != nil {
			return
		}
		arts[statsJSONKey] = string(data)
	}
	ce := &cache.Entry{Module: res.Module, Artifacts: arts}
	// Best-effort: a full disk or unwritable store must not fail the
	// build (the store's own error counter records it). Keys are
	// marked stored only on success, so a transient write failure is
	// retried on the next rebuild of the design.
	stored := true
	if d.Disk != nil {
		stored = d.Disk.Put(key, ce) == nil
	}
	if d.Remote != nil {
		d.Remote.Put(key, ce)
	}
	if stored {
		entry.markStored(want)
	}
}

// compileEntry runs the phase graph for one design and populates its
// cache entry: the compiled design (or structured failure), per-phase
// results, and any pre-rendered artifacts (so requests for the same
// targets never re-emit).
func (d *Driver) compileEntry(entry *cacheEntry, req Request, src string) {
	pres := d.runner().Run(pipeline.Request{
		Path:      req.Path,
		Source:    src,
		Module:    req.Module,
		Opts:      req.Options,
		Emits:     emitPhases(req.Targets),
		GoPackage: req.GoPackage,
		Analyze:   req.Analyze,
	})
	entry.module = pres.Module
	entry.phases = pres.Phases
	entry.findings = pres.Findings
	entry.fileFindings = pres.FileFindings
	if pres.Err != nil {
		entry.err = pres.Err
		entry.diags = toDiags(req.Path, pres.Module, diagPhase(pres.ErrPhase), pres.Err)
		return
	}
	entry.design = pres.Design
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if entry.artifacts == nil {
		entry.artifacts = make(map[string]artifactResult)
	}
	for ph, text := range pres.Artifacts {
		entry.artifacts[artifactKey(Target(pipeline.TargetName(ph)), req.GoPackage)] = artifactResult{text: text}
	}
	for ph, err := range pres.EmitErrs {
		entry.artifacts[artifactKey(Target(pipeline.TargetName(ph)), req.GoPackage)] = artifactResult{err: err}
	}
}

// emitPhases maps the request's targets onto the pipeline's emit
// phases, in request order.
func emitPhases(targets []Target) []pipeline.Phase {
	out := make([]pipeline.Phase, 0, len(targets))
	for _, t := range targets {
		if ph, ok := pipeline.EmitPhase(string(t)); ok {
			out = append(out, ph)
		}
	}
	return out
}

// diagPhase maps a pipeline phase onto the coarser diagnostic phases
// the driver has always reported (sem failures surface as parse, both
// machine phases as compile).
func diagPhase(ph pipeline.Phase) Phase {
	switch ph {
	case pipeline.PhaseParse, pipeline.PhaseSem:
		return PhaseParse
	case pipeline.PhaseLower:
		return PhaseLower
	case pipeline.PhaseEFSM, pipeline.PhaseEFSMMin:
		return PhaseCompile
	}
	return PhaseEmit
}

// designPhases is the Phases record for a request served whole from
// the design-level cache.
func designPhases(st pipeline.Status, key string) []pipeline.PhaseResult {
	return []pipeline.PhaseResult{{Phase: pipeline.PhaseDesign, Status: st, Key: key}}
}

// toDiags converts an error into structured diagnostics, splitting a
// source.DiagError into its per-position messages.
func toDiags(file, module string, phase Phase, err error) []Diagnostic {
	var de *source.DiagError
	if errors.As(err, &de) {
		out := make([]Diagnostic, 0, len(de.Diags))
		for _, d := range de.Diags {
			pos := ""
			if d.Pos.IsValid() {
				pos = d.Pos.String()
			}
			out = append(out, Diagnostic{
				File: file, Module: module, Phase: phase,
				Pos: pos, Severity: d.Severity, Message: d.Message,
			})
		}
		return out
	}
	return []Diagnostic{{
		File: file, Module: module, Phase: phase,
		Severity: source.Error, Message: err.Error(),
	}}
}

// ExpandError is the structured failure ExpandModules returns: the
// same file/phase diagnostics a batch build would report, so callers
// (and `eclc -all`) attribute an unexpandable file consistently
// instead of printing a bare error string.
type ExpandError struct {
	Diags []Diagnostic
}

// Error joins the diagnostics, one per line.
func (e *ExpandError) Error() string {
	lines := make([]string, 0, len(e.Diags))
	for _, d := range e.Diags {
		lines = append(lines, d.String())
	}
	return strings.Join(lines, "\n")
}

// ExpandModules returns one request per module declared in the
// request's file, in source order, so a batch build can compile every
// module concurrently. The per-module requests inherit the targets and
// options of the seed request. Failures (unreadable file, parse
// errors, an empty file) are reported as an *ExpandError carrying
// file/phase diagnostics.
//
// The front end this runs to discover the modules is the same
// file-level compilation unit the per-module builds reuse: lowering is
// non-mutating (sem.Info.Derive), so expansion parses and analyzes the
// file once and every subsequent build of its modules records the
// parse/sem phases as "shared" instead of re-running them.
func (d *Driver) ExpandModules(req Request) ([]Request, error) {
	src := req.Source
	if src == "" {
		data, err := os.ReadFile(req.Path)
		if err != nil {
			return nil, &ExpandError{Diags: []Diagnostic{{
				File: req.Path, Phase: PhaseRead,
				Severity: source.Error, Message: err.Error(),
			}}}
		}
		src = string(data)
	}
	mods, phase, err := d.runner().Modules(pipeline.Request{
		Path: req.Path, Source: src, Opts: req.Options,
	})
	if err != nil {
		return nil, &ExpandError{Diags: toDiags(req.Path, "", diagPhase(phase), err)}
	}
	if len(mods) == 0 {
		return nil, &ExpandError{Diags: []Diagnostic{{
			File: req.Path, Phase: PhaseParse,
			Severity: source.Error, Message: fmt.Sprintf("no modules in %s", req.Path),
		}}}
	}
	out := make([]Request, 0, len(mods))
	for _, m := range mods {
		r := req
		r.Source = src
		r.Module = m
		out = append(out, r)
	}
	return out, nil
}

// ExpandModules is the standalone form of Driver.ExpandModules for
// callers without a batch driver at hand. It expands through a
// throwaway driver, so nothing is shared with later builds — batch
// consumers should expand through the Driver they build with.
func ExpandModules(req Request) ([]Request, error) {
	return New(0).ExpandModules(req)
}

// ---------------------------------------------------------------------------
// Design cache

// statsJSONKey is the artifact-cache key of the machine-readable
// core.Stats blob stored alongside the human-readable stats target.
const statsJSONKey = "stats#json"

// artifactKey names one rendered artifact in both cache tiers. The Go
// target's key carries the requested package name ("" means the
// module-name default, which the content hash already determines).
func artifactKey(t Target, goPkg string) string {
	if t == TargetGo {
		return string(t) + "\x00" + goPkg
	}
	return string(t)
}

// cacheEntry is a single-flight slot for one (source, module, options)
// key: the first request builds the design, later requests reuse it,
// rendered artifacts are memoized per target, and artifacts loaded
// from the disk tier are replayed without compiling.
type cacheEntry struct {
	once      sync.Once
	hasDesign atomic.Bool // design (or compile error) is resolved

	module string
	design *core.Design
	diags  []Diagnostic
	err    error
	phases []pipeline.PhaseResult // pipeline walk that built this entry

	// findings memoizes the static-analysis diagnostics: filled by the
	// pipeline when the building request asked for analysis, or lazily
	// (analyzeOnce) when a later analyze request hits an entry compiled
	// without it. nil means "not analyzed yet" (the pipeline normalizes
	// an empty finding list to a non-nil slice).
	analyzeOnce  sync.Once
	findings     []analyze.Finding
	fileFindings []analyze.Finding

	mu         sync.Mutex
	diskModule string // resolved module name from a disk hit
	artifacts  map[string]artifactResult
	stored     map[string]bool // artifact keys already written to disk
}

type artifactResult struct {
	text string
	err  error
}

// artifact renders (or recalls) one target's text from the compiled
// design.
func (e *cacheEntry) artifact(t Target, goPkg string) (string, error) {
	key := artifactKey(t, goPkg)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.artifacts == nil {
		e.artifacts = make(map[string]artifactResult)
	}
	if r, ok := e.artifacts[key]; ok {
		return r.text, r.err
	}
	if goPkg == "" {
		goPkg = e.module
	}
	text, err := emit(e.design, t, goPkg)
	e.artifacts[key] = artifactResult{text, err}
	return text, err
}

// analyzeFindings returns the entry's static-analysis diagnostics,
// running the rules over the memoized design on first demand when the
// building request did not ask for them. ran reports whether this call
// performed the lazy analysis, as opposed to the findings having come
// from the pipeline walk (or from a concurrent caller's run).
func (e *cacheEntry) analyzeFindings() (findings, fileFindings []analyze.Finding, ran bool) {
	e.analyzeOnce.Do(func() {
		if e.findings != nil || e.design == nil {
			return
		}
		ran = true
		fs := analyze.Analyze(e.design)
		if fs == nil {
			fs = []analyze.Finding{}
		}
		e.findings = fs
		ffs := analyze.AnalyzeFile(e.design.Lowered.Info)
		if ffs == nil {
			ffs = []analyze.Finding{}
		}
		e.fileFindings = ffs
	})
	return e.findings, e.fileFindings, ran
}

// replay serves a request purely from artifacts already in memory
// (loaded from the disk tier by an earlier request), if every wanted
// key is present.
func (e *cacheEntry) replay(want []string) (module string, arts map[string]string, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.diskModule == "" {
		return "", nil, false
	}
	arts = make(map[string]string, len(want))
	for _, k := range want {
		r, ok := e.artifacts[k]
		if !ok || r.err != nil {
			return "", nil, false
		}
		arts[k] = r.text
	}
	return e.diskModule, arts, true
}

// absorb records a disk hit's artifacts in the memory tier and marks
// them as already persisted.
func (e *cacheEntry) absorb(module string, arts map[string]string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.diskModule = module
	if e.artifacts == nil {
		e.artifacts = make(map[string]artifactResult)
	}
	if e.stored == nil {
		e.stored = make(map[string]bool)
	}
	for k, text := range arts {
		e.artifacts[k] = artifactResult{text: text}
		e.stored[k] = true
	}
}

// allStored reports whether every key has already been persisted (in
// which case the disk write can be skipped).
func (e *cacheEntry) allStored(keys []string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, k := range keys {
		if !e.stored[k] {
			return false
		}
	}
	return true
}

// markStored records keys as persisted, after a successful disk write.
func (e *cacheEntry) markStored(keys []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stored == nil {
		e.stored = make(map[string]bool)
	}
	for _, k := range keys {
		e.stored[k] = true
	}
}

func (d *Driver) entry(key string) *cacheEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.entries == nil {
		d.entries = make(map[string]*cacheEntry)
	}
	e, ok := d.entries[key]
	if !ok {
		e = &cacheEntry{}
		d.entries[key] = e
	}
	return e
}

// cacheKeyGeneration versions the cacheKey fingerprint itself. 2: the
// lexer rejects char and string literals that are not valid UTF-8, so
// a manifest written for such a source by generation 1 is not served.
const cacheKeyGeneration = 2

// cacheKey fingerprints everything that determines a compiled design
// and its diagnostics. It chains from the parse phase's key, which
// already covers the source text, the path (diagnostics and AST
// positions carry the file name, so identical text under two paths
// must not share an entry) and the preprocessor configuration, and
// adds the selected module and the pipeline options. Every field is
// length-prefixed.
func cacheKey(path, src, module string, opts core.Options) string {
	h := sha256.New()
	// Salt with the artifact-schema generation: bump it when emitted
	// artifact formats change incompatibly, so stale persistent
	// entries from older builds read as misses.
	fmt.Fprintf(h, "gen:%d", cacheKeyGeneration)
	for _, part := range []string{
		pipeline.KeyParse(path, src, opts),
		module,
		fmt.Sprintf("pol:%d:min:%t", opts.Policy, opts.Minimize),
		fmt.Sprintf("cmp:%d:%d:%d", opts.Compile.MaxStates, opts.Compile.MaxRunsPerState, opts.Compile.MaxDecisionsPerRun),
	} {
		fmt.Fprintf(h, "\x00%d:%s", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil))
}
