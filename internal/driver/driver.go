// Package driver orchestrates the ECL compilation pipeline for many
// modules at once. It is the one place that wires up the paper's flow
// — parse, analyze, split into reactive + data parts, compile to an
// EFSM, emit artifacts — so the command-line tools (eclc, eclsim,
// eclbench) and library users all share the same entry point instead
// of replumbing the phases by hand.
//
// A Driver runs a batch of Requests over a bounded worker pool on one
// pipeline.Runner, whose phase store deduplicates work by content key
// (a repeated build of an unchanged source is one root-entry lookup),
// and reports failures as structured Diagnostics carrying the file,
// module, and pipeline phase instead of bare error strings.
package driver

import (
	"context"
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
	// the phase graph (the root entry stores rendered outputs, not
	// findings), so the analyze phase itself can report a cache hit or
	// rebuild of its own.
	Analyze bool
}

// Result reports one request's outcome. Artifacts maps each requested
// target to its rendered text; Design exposes the compiled module for
// callers that want to simulate or inspect it; Diags carries
// structured failure information when Err is non-nil.
//
// A result served by a root entry that a persistent tier supplied
// (DiskCached or RemoteCached, or a memory hit on such an entry)
// carries the artifacts and stats but a nil Design: the store holds
// rendered outputs, not compiled intermediate state. Requests with no
// targets are served only by walks of this process, so they always get
// a Design. A failure is remembered in memory only: an identical later
// request gets the same diagnostics from a root memory hit (Cached)
// without compiling again.
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
	// request. A request that walked the graph carries one entry per
	// phase walked (parse ... emit); a request served whole by its root
	// entry carries the single entry pipeline.PhaseDesign, naming the
	// tier that served it.
	Phases []pipeline.PhaseResult

	Diags        []Diagnostic
	Err          error
	Cached       bool // served whole by the root entry (any tier)
	DiskCached   bool // served by the root entry from the on-disk tier
	RemoteCached bool // served by the root entry from the remote tier
}

// Failed reports whether the request produced an error.
func (r *Result) Failed() bool { return r.Err != nil }

// Driver runs batches of compilation requests. The zero value is ready
// to use: it sizes its worker pool to GOMAXPROCS and caches in memory.
// A Driver is safe for concurrent use.
//
// Every request goes through one pipeline.Runner, whose tiers are
// memory, the persistent phase store (Disk) and a shared remote cache
// server (Remote) the whole fleet populates. A request is served
// memory → disk → remote → build, first as a whole by its root entry,
// then phase by phase; a remote hit is written through to the local
// disk tier, and fresh entries repopulate every tier (the remote upload
// is asynchronous and best-effort).
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
	// It serves root entries only to requests with targets — they store
	// rendered artifacts, so a request that needs the compiled Design
	// itself (no targets) walks — and phase snapshots to every walk.
	Disk *cache.Store
	// Remote is the shared third cache tier (nil: none): an HTTP
	// content-addressed cache server (eclcached) dialed with
	// remote.Dial, consulted like Disk.
	Remote *remote.Client

	mu   sync.Mutex
	pipe *pipeline.Runner
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

// CacheStats snapshots the cache traffic of a driver's builds. The
// request-level counters are the root entry's (Phases[design]).
type CacheStats struct {
	// Hits counts requests served by the root entry's memory tier,
	// requests that waited for an identical one in flight included;
	// Misses counts walks of the phase graph (compiles).
	Hits, Misses int64
	// DiskHits and DiskMisses count the root entry's probes of the
	// persistent tier; DiskEvictions counts entries its GC removed (all
	// zero when the driver has no Disk store).
	DiskHits, DiskMisses, DiskEvictions int64
	// RemoteHits and RemoteMisses count the root entry's probes of the
	// shared remote tier; RemoteUploads counts entries (root and phase)
	// successfully pushed to it, RemoteErrors its degraded reads and
	// failed uploads (all zero when the driver has no Remote client).
	RemoteHits, RemoteMisses, RemoteUploads, RemoteErrors int64
	// Phases breaks pipeline traffic down per phase: how often each
	// phase was replayed from memory, the phase store, or the remote
	// tier versus rebuilt. Requests served whole by the root entry
	// appear under pipeline.PhaseDesign only.
	Phases PhaseStats
}

// CacheStats reports cache traffic so far across all tiers.
func (d *Driver) CacheStats() CacheStats {
	cs := CacheStats{Phases: PhaseStats{}}
	d.mu.Lock()
	pipe := d.pipe
	d.mu.Unlock()
	if pipe != nil {
		cs.Phases = pipe.Stats()
	}
	root := cs.Phases[pipeline.PhaseDesign]
	cs.Hits, cs.Misses = root.MemHits, root.Rebuilds
	cs.DiskHits, cs.DiskMisses = root.DiskHits, root.DiskMisses
	cs.RemoteHits, cs.RemoteMisses = root.RemoteHits, root.RemoteMisses
	if d.Disk != nil {
		cs.DiskEvictions = d.Disk.Stats().Evictions
	}
	if d.Remote != nil {
		st := d.Remote.Stats()
		cs.RemoteUploads, cs.RemoteErrors = st.Uploads, st.Errors
	}
	return cs
}

// Build compiles every request concurrently and returns one Result per
// request, in request order. A fixed pool of min(Workers, len(reqs))
// goroutines takes the requests in order, each building one at a time,
// so a worker's stack, once grown by the deep pipeline frames, serves
// every later request. Per-request failures are reported in the Results
// (and joined into the returned error); a cancelled context marks the
// requests no worker took failed with the context error.
func (d *Driver) Build(ctx context.Context, reqs []Request) ([]Result, error) {
	results := make([]Result, len(reqs))
	built := make([]bool, len(reqs))
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
				built[i] = true
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := range results {
			if !built[i] {
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

// buildOne reads the request's source, runs it through the pipeline
// and maps the outcome onto a Result.
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

	pres := d.runner().Run(pipeline.Request{
		Path:      req.Path,
		Source:    src,
		Module:    req.Module,
		Opts:      req.Options,
		Emits:     emitPhases(req.Targets),
		GoPackage: req.GoPackage,
		Analyze:   req.Analyze,
	})
	if pres.Module != "" {
		res.Module = pres.Module
	}
	res.Phases = pres.Phases
	res.Findings, res.FileFindings = pres.Findings, pres.FileFindings
	res.Cached = pres.Root != pipeline.StatusRebuilt
	res.DiskCached = pres.Root == pipeline.StatusDiskHit
	res.RemoteCached = pres.Root == pipeline.StatusRemoteHit
	if pres.Err != nil {
		res.Err = pres.Err
		res.Diags = toDiags(req.Path, pres.Module, diagPhase(pres.ErrPhase), pres.Err)
		return res
	}
	res.Design = pres.Design

	if len(req.Targets) > 0 {
		res.Artifacts = make(map[Target]string, len(req.Targets))
		for _, t := range req.Targets {
			ph, ok := pipeline.EmitPhase(string(t))
			err := pres.EmitErrs[ph]
			if !ok {
				err = fmt.Errorf("unknown target %q", t)
			}
			if err != nil {
				res.Err = err
				res.Diags = append(res.Diags, Diagnostic{
					File: req.Path, Module: res.Module, Phase: PhaseEmit,
					Severity: source.Error,
					Message:  fmt.Sprintf("target %s: %v", t, err),
				})
				return res
			}
			res.Artifacts[t] = pres.Artifacts[ph]
		}
		if _, ok := res.Artifacts[TargetStats]; ok {
			res.Stats = pres.Stats
		}
	}
	return res
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
