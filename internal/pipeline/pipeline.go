// Package pipeline models the ECL compilation flow as an explicit
// phase graph. Each phase is a node with declared inputs, a content
// key derived from its *inputs'* keys (not from the raw source), and —
// only where a later build reads it back — a serializable output
// snapshot:
//
//	parse ──► sem ──► lower ──► efsm ──► efsm-min ──► emit-* / stats
//	                    │         ▲          └──────► analyze
//	                    │         │
//	                    └── structural fingerprint (cuts the key chain)
//
//	keyed only:       parse, sem, lower
//	snapshot stored:  efsm, efsm-min (EFSM), analyze, analyze-file
//	                  (findings), emit-*, stats (artifact texts)
//
// The front-end phases (parse, sem, lower) are cheap, always run, and
// chain their keys source-downward; nothing reads their outputs back
// from a store, so they store none. The efsm phase's key deliberately
// breaks the chain: it derives from the lowered module's structural
// fingerprint, which excludes data-function bodies, so an edit
// confined to a data function changes the parse/sem/lower/emit keys
// but *not* the efsm key — the Runner re-runs the cheap front end,
// replays the cached machine snapshot against the fresh lowering, and
// only re-renders the artifacts. That is the paper's
// separable-refinement story applied to the build: refining the data
// part never pays for reactive synthesis again.
//
// A Runner consults its tiers per phase — a memory tier of decoded
// outputs, the persistent phase store (internal/cache) and an optional
// remote tier — and records one PhaseResult per phase walked, which
// the driver aggregates into PhaseStats and eclc prints with -explain.
// Snapshots are encoded only for the persistent tiers: a memory-only
// build encodes nothing, and its keys and fingerprints are hashed from
// bytes appended directly, without encoding/json or fmt.
//
// Above the graph sits its root entry (PhaseDesign), keyed on the
// whole request (KeyDesign): the resolved module, the artifacts, the
// stats and — when this process walked — the compiled Design. It is
// served through the same tiers before the walk, so an unchanged
// rebuild costs one key and one lookup; on disk it is an ordinary
// phase manifest that records the module and references the emit
// phases' own blobs.
package pipeline

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/analyze"
	"repro/internal/cache"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/efsm"
	"repro/internal/lower"
	"repro/internal/source"
)

// Phase names one node of the compilation graph.
type Phase string

// Pipeline phases, in flow order.
const (
	PhaseParse       Phase = "parse"
	PhaseSem         Phase = "sem"
	PhaseLower       Phase = "lower"
	PhaseEFSM        Phase = "efsm"
	PhaseEFSMMin     Phase = "efsm-min"
	PhaseAnalyze     Phase = "analyze"
	PhaseAnalyzeFile Phase = "analyze-file"
	PhaseEmitEsterel Phase = "emit-esterel"
	PhaseEmitC       Phase = "emit-c"
	PhaseEmitGo      Phase = "emit-go"
	PhaseEmitGlue    Phase = "emit-glue"
	PhaseEmitDot     Phase = "emit-dot"
	PhaseEmitTable   Phase = "emit-table"
	PhaseEmitVerilog Phase = "emit-verilog"
	PhaseEmitVHDL    Phase = "emit-vhdl"
	PhaseEmitStats   Phase = "stats"

	// PhaseDesign is the graph's root entry: a request served whole
	// from it reports this one phase instead of the walk's.
	PhaseDesign Phase = cache.DesignPhase
)

// AllPhases lists every phase in flow order (the stable order used by
// reports).
func AllPhases() []Phase {
	return []Phase{
		PhaseParse, PhaseSem, PhaseLower, PhaseEFSM, PhaseEFSMMin,
		PhaseAnalyze, PhaseAnalyzeFile,
		PhaseEmitEsterel, PhaseEmitC, PhaseEmitGo, PhaseEmitGlue,
		PhaseEmitDot, PhaseEmitTable, PhaseEmitVerilog, PhaseEmitVHDL, PhaseEmitStats,
	}
}

// EmitPhase maps an artifact target name (the driver's Target) to its
// emit phase.
func EmitPhase(target string) (Phase, bool) {
	switch target {
	case "esterel":
		return PhaseEmitEsterel, true
	case "c":
		return PhaseEmitC, true
	case "go":
		return PhaseEmitGo, true
	case "glue":
		return PhaseEmitGlue, true
	case "dot":
		return PhaseEmitDot, true
	case "table":
		return PhaseEmitTable, true
	case "verilog":
		return PhaseEmitVerilog, true
	case "vhdl":
		return PhaseEmitVHDL, true
	case "stats":
		return PhaseEmitStats, true
	}
	return "", false
}

// TargetName is EmitPhase's inverse: the artifact target an emit phase
// renders ("" for non-emit phases).
func TargetName(ph Phase) string {
	switch ph {
	case PhaseEmitEsterel:
		return "esterel"
	case PhaseEmitC:
		return "c"
	case PhaseEmitGo:
		return "go"
	case PhaseEmitGlue:
		return "glue"
	case PhaseEmitDot:
		return "dot"
	case PhaseEmitTable:
		return "table"
	case PhaseEmitVerilog:
		return "verilog"
	case PhaseEmitVHDL:
		return "vhdl"
	case PhaseEmitStats:
		return "stats"
	}
	return ""
}

// Status reports how one phase's output was obtained.
type Status string

// Phase statuses.
const (
	// StatusRebuilt: the phase ran for real.
	StatusRebuilt Status = "rebuilt"
	// StatusMemHit: served from the Runner's memory tier (a key it
	// built or loaded before).
	StatusMemHit Status = "mem-hit"
	// StatusDiskHit: decoded from the persistent phase store.
	StatusDiskHit Status = "disk-hit"
	// StatusRemoteHit: fetched from the shared remote cache tier (and
	// written through to the local tiers).
	StatusRemoteHit Status = "remote-hit"
	// StatusShared: the phase's output was reused from the file-level
	// compilation unit another request of the same batch already built
	// (parse and sem run once per file; see unitFor).
	StatusShared Status = "shared"
	// StatusFailed: the phase ran and failed.
	StatusFailed Status = "failed"
)

// PhaseResult records one phase walked for one request.
type PhaseResult struct {
	Phase  Phase
	Status Status
	Key    string // full content key (hex); "" when never computed
}

// PhaseCounts aggregates one phase's traffic across requests. For
// PhaseDesign, Rebuilds counts walks of the graph.
type PhaseCounts struct {
	MemHits, DiskHits, RemoteHits, Rebuilds, Failures int64
	// Shared counts requests served from another request's file-level
	// compilation unit (front-end sharing; parse/sem only).
	Shared int64
	// DiskMisses and RemoteMisses count probes of the persistent tiers
	// that missed.
	DiskMisses, RemoteMisses int64
}

// PhaseStats maps each phase to its aggregated traffic.
type PhaseStats map[Phase]PhaseCounts

// Request asks the Runner for one module compiled through the graph.
type Request struct {
	Path   string
	Source string
	Module string // "" = last module in the file
	Opts   core.Options
	// Emits lists the artifact phases to render, in order.
	Emits     []Phase
	GoPackage string
	// Analyze runs the static-analysis phase over the compiled design
	// and fills Result.Findings.
	Analyze bool
}

// Result is one request's outcome. Err/ErrPhase report a front-end or
// machine failure (everything up to efsm-min); emission failures are
// per-phase in EmitErrs so one failing back end does not hide the
// others. A request served by the root entry has a nil Design unless
// this Runner walked for the entry; a memory hit on a failed walk
// carries that walk's errors.
type Result struct {
	// Root reports how the root entry served the request
	// (StatusMemHit, StatusDiskHit or StatusRemoteHit), or
	// StatusRebuilt when the request walked the graph.
	Root      Status
	Module    string
	Design    *core.Design
	Artifacts map[Phase]string
	EmitErrs  map[Phase]error
	// Findings holds the analyze phase's diagnostics (nil unless
	// Request.Analyze; non-nil but possibly empty when it ran).
	Findings []analyze.Finding
	// FileFindings holds the design-level (analyze-file) diagnostics for
	// the request's whole file. The design rules run once per shared
	// compilation unit — every module request of the same file sees the
	// same slice — so batch callers must dedup before printing.
	FileFindings []analyze.Finding
	Stats        *core.Stats
	Phases       []PhaseResult
	Err          error
	ErrPhase     Phase
}

// Runner walks the phase graph with three tiers: memory, the
// persistent phase store, and an optional shared remote tier. The
// memory tier holds each key's output decoded — the machine with the
// lowering it is bound to, the findings, the artifact text and stats,
// a root entry's module and artifacts — for every key this Runner
// built or loaded; a snapshot is encoded only when a disk or remote
// tier is written. The zero value caches in memory only; a Runner is
// safe for concurrent use.
type Runner struct {
	// Disk is the persistent phase-snapshot tier (nil: memory only).
	Disk *cache.Store
	// Remote is the shared cache tier behind the disk tier (nil: none).
	// Remote hits are written through to Disk and memory; fresh
	// snapshots are uploaded best-effort (the remote client queues them
	// asynchronously).
	Remote cache.Tier
	// NoCache disables every tier (every phase rebuilds).
	NoCache bool
	// NoShare disables front-end sharing: every request re-runs parse
	// and sem over its file instead of reusing the per-file unit.
	// Orthogonal to NoCache (sharing is intra-batch reuse, not a cache
	// tier); used to benchmark the per-module-front-end baseline.
	NoShare bool

	mu      sync.Mutex
	mem     map[string]memEntry   // phase key -> decoded output built or loaded here
	stored  map[string]bool       // phase keys a persistent tier holds (written or loaded here)
	units   map[string]*unit      // parse key -> shared front end
	flights map[string]*sync.Once // root key -> its first resolution
	stats   PhaseStats
}

// memEntry is one phase's output in the memory tier, held decoded:
// nothing is encoded for this tier, so a build without a persistent
// tier encodes nothing at all. Which fields are set depends on the
// phase.
type memEntry struct {
	// efsm, efsm-min: the machine, the lowering it is bound to and
	// their structural fingerprint. A hit rebinds the machine to the
	// walk's own lowering (see rebind).
	machine  *efsm.Machine
	low      *lower.Result
	structFP string
	// analyze, analyze-file: the findings, never handed out (a hit
	// returns a copy).
	findings []analyze.Finding
	// emit phases: the artifact text; for stats (and a root entry
	// with the stats phase) also the parsed core.Stats, never handed
	// out (a hit returns a copy).
	text  string
	stats *core.Stats
	// design (the root entry): the resolved module, the artifacts by
	// emit phase (a hit returns a copy of the map) and, when this
	// Runner walked for the entry, the compiled Design and the walk's
	// failure, if any (err, errPhase, emitErrs; never persisted).
	module    string
	artifacts map[Phase]string
	design    *core.Design
	err       error
	errPhase  Phase
	emitErrs  map[Phase]error
}

// NewRunner returns a Runner over the given persistent store (nil for
// memory-only).
func NewRunner(disk *cache.Store) *Runner { return &Runner{Disk: disk} }

// Stats snapshots the per-phase traffic counters.
func (r *Runner) Stats() PhaseStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(PhaseStats, len(r.stats))
	for ph, c := range r.stats {
		out[ph] = c
	}
	return out
}

func (r *Runner) count(ph Phase, st Status) {
	r.tally(ph, func(c *PhaseCounts) {
		switch st {
		case StatusMemHit:
			c.MemHits++
		case StatusDiskHit:
			c.DiskHits++
		case StatusRemoteHit:
			c.RemoteHits++
		case StatusRebuilt:
			c.Rebuilds++
		case StatusShared:
			c.Shared++
		case StatusFailed:
			c.Failures++
		}
	})
}

// tally applies f to phase ph's counters.
func (r *Runner) tally(ph Phase, f func(*PhaseCounts)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stats == nil {
		r.stats = make(PhaseStats)
	}
	c := r.stats[ph]
	f(&c)
	r.stats[ph] = c
}

// countMiss records a probe of the disk tier, or with remote set of
// the remote tier, that missed.
func (r *Runner) countMiss(ph Phase, remote bool) {
	r.tally(ph, func(c *PhaseCounts) {
		if remote {
			c.RemoteMisses++
		} else {
			c.DiskMisses++
		}
	})
}

// memGet returns the output this Runner built or loaded for key.
func (r *Runner) memGet(key string) (memEntry, bool) {
	if r.NoCache || key == "" {
		return memEntry{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.mem[key]
	return e, ok
}

// memPut records a phase's output in the memory tier. stored marks the
// key as held by a persistent tier (written there, or loaded from it),
// so machinePhase does not encode it again.
func (r *Runner) memPut(key string, e memEntry, stored bool) {
	if r.NoCache || key == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mem == nil {
		r.mem = make(map[string]memEntry)
	}
	r.mem[key] = e
	if stored {
		if r.stored == nil {
			r.stored = make(map[string]bool)
		}
		r.stored[key] = true
	}
}

// persistent reports whether a freshly built snapshot for key goes to
// a persistent tier, and so must be encoded at all.
func (r *Runner) persistent(key string) bool {
	return !r.NoCache && key != "" && (r.Disk != nil || r.Remote != nil)
}

// fetch reads phase ph's entry for key from the persistent tiers: the
// disk store, then the shared remote tier, whose hits are written
// through to disk. ok=false is a miss. The caller decodes the blobs
// and, if they decode, records the value with memPut(…, true).
func (r *Runner) fetch(ph Phase, key string, want []string) (e *cache.PhaseEntry, st Status, ok bool) {
	if !r.persistent(key) {
		return nil, "", false
	}
	if r.Disk != nil {
		if e, ok := r.Disk.GetPhase(key, want); ok {
			return e, StatusDiskHit, true
		}
		r.countMiss(ph, false)
	}
	if r.Remote != nil {
		if e, ok := r.Remote.GetPhase(key, want); ok {
			// Read through: the next build of this key should be a
			// local disk hit, not another network round trip.
			if r.Disk != nil {
				r.Disk.PutPhase(key, e)
			}
			return e, StatusRemoteHit, true
		}
		r.countMiss(ph, true)
	}
	return nil, "", false
}

// persist writes a fresh entry to the persistent tiers (best-effort: a
// full disk or dead remote never fails the build; the remote client
// uploads asynchronously) and reports whether the disk write
// succeeded.
func (r *Runner) persist(key string, e *cache.PhaseEntry) bool {
	persisted := false
	if r.Disk != nil {
		persisted = r.Disk.PutPhase(key, e) == nil
	}
	if r.Remote != nil {
		r.Remote.PutPhase(key, e)
	}
	return persisted
}

// findingsPhase serves one findings phase (analyze or analyze-file)
// from the tiers, falling back to run. The caller owns the returned
// slice: the memory tier keeps its own copy.
func (r *Runner) findingsPhase(ph Phase, key string, run func() []analyze.Finding) ([]analyze.Finding, Status) {
	if e, ok := r.memGet(key); ok {
		return slices.Clone(e.findings), StatusMemHit
	}
	if e, st, ok := r.fetch(ph, key, []string{blobFindings}); ok {
		if fs, err := analyze.Decode([]byte(e.Blobs[blobFindings])); err == nil {
			r.memPut(key, memEntry{findings: slices.Clone(fs)}, true)
			return fs, st
		}
	}
	fs := run()
	if fs == nil {
		fs = []analyze.Finding{}
	}
	stored := false
	if r.persistent(key) {
		if enc, err := analyze.Encode(fs); err == nil {
			stored = r.persist(key, &cache.PhaseEntry{Phase: string(ph), Blobs: map[string]string{blobFindings: string(enc)}})
		}
	}
	r.memPut(key, memEntry{findings: slices.Clone(fs)}, stored)
	return fs, StatusRebuilt
}

// Blob names within phase snapshots. A root entry names each artifact
// blob after its emit phase, plus rootStatsJSON.
const (
	blobEFSM      = "efsm"                                  // efsm / efsm-min: serialized machine
	blobText      = "text"                                  // emit phases: rendered artifact
	blobJSON      = "json"                                  // stats: machine-readable core.Stats
	blobFindings  = "findings"                              // analyze: serialized findings list
	rootStatsJSON = string(PhaseEmitStats) + "." + blobJSON // design: the stats phase's json blob
)

// Run serves one request. Unless it analyzes (findings live in their
// own phases) or the Runner caches nothing, the request is served
// whole by its root entry when a tier holds the entry's key, and
// otherwise walks the graph and stores the entry; identical concurrent
// requests share one resolution, the first one's. A request without
// emits needs the Design, which only a walk yields, so it uses the
// root's memory tier alone. A walk that fails is remembered in memory
// only, so identical requests get its errors without walking again.
// Every other request walks.
func (r *Runner) Run(req Request) *Result {
	parseKey := KeyParse(req.Path, req.Source, req.Opts)
	if r.NoCache || req.Analyze {
		return r.walk(req, parseKey)
	}
	key := KeyDesign(parseKey, req.Module, req.Opts, req.Emits, req.GoPackage)
	var res *Result
	r.flight(key).Do(func() { res = r.root(key, parseKey, req) })
	if res == nil {
		// Another request resolved the key first: its entry, or its
		// failure, is in the memory tier.
		res = r.root(key, parseKey, req)
	}
	return res
}

// flight returns the once that gates a root key's first resolution.
func (r *Runner) flight(key string) *sync.Once {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flights == nil {
		r.flights = make(map[string]*sync.Once)
	}
	f := r.flights[key]
	if f == nil {
		f = new(sync.Once)
		r.flights[key] = f
	}
	return f
}

// root serves a request from its root entry's tiers — memory, then
// disk and remote — or walks the graph and stores the entry. A walk
// with a failed phase, and a request without emits (it has nothing to
// store but the Design), store the entry in memory only; so a memory
// entry for a key without emits always comes from a walk.
func (r *Runner) root(key, parseKey string, req Request) *Result {
	if e, ok := r.memGet(key); ok {
		return r.rootHit(key, e, StatusMemHit)
	}
	if len(req.Emits) > 0 {
		if pe, st, ok := r.fetch(PhaseDesign, key, rootBlobNames(req.Emits)); ok {
			if e, ok := decodeRoot(pe, req.Emits); ok {
				r.memPut(key, e, true)
				return r.rootHit(key, e, st)
			}
		}
	}
	res := r.walk(req, parseKey)
	e := memEntry{module: res.Module, artifacts: maps.Clone(res.Artifacts), stats: copyStats(res.Stats), design: res.Design, err: res.Err, errPhase: res.ErrPhase}
	if len(res.EmitErrs) > 0 {
		e.emitErrs = maps.Clone(res.EmitErrs)
	}
	stored := false
	if e.err == nil && e.emitErrs == nil && len(req.Emits) > 0 && r.persistent(key) {
		if blobs, ok := e.rootBlobs(); ok {
			stored = r.persist(key, &cache.PhaseEntry{Phase: string(PhaseDesign), Module: e.module, Blobs: blobs})
		}
	}
	r.memPut(key, e, stored)
	return res
}

// rootHit is the result of a request served whole by its root entry.
func (r *Runner) rootHit(key string, e memEntry, st Status) *Result {
	r.count(PhaseDesign, st)
	return &Result{
		Root:      st,
		Module:    e.module,
		Design:    e.design,
		Artifacts: maps.Clone(e.artifacts),
		EmitErrs:  maps.Clone(e.emitErrs),
		Stats:     e.statsCopy(),
		Phases:    []PhaseResult{{Phase: PhaseDesign, Status: st, Key: key}},
		Err:       e.err,
		ErrPhase:  e.errPhase,
	}
}

// rootBlobNames lists the blobs a root entry holds for the emits.
func rootBlobNames(emits []Phase) []string {
	names := make([]string, 0, len(emits)+1)
	for _, ph := range emits {
		names = append(names, string(ph))
		if ph == PhaseEmitStats {
			names = append(names, rootStatsJSON)
		}
	}
	return names
}

// rootBlobs encodes a root entry's artifacts for the persistent tiers:
// the texts and the stats JSON the emit phases store, so the entry
// adds no blob of its own.
func (e memEntry) rootBlobs() (map[string]string, bool) {
	blobs := make(map[string]string, len(e.artifacts)+1)
	for ph, text := range e.artifacts {
		blobs[string(ph)] = text
	}
	if e.stats != nil {
		js, err := json.Marshal(e.stats)
		if err != nil {
			return nil, false
		}
		blobs[rootStatsJSON] = string(js)
	}
	return blobs, true
}

// decodeRoot rebuilds a root entry's memory value from its persistent
// form; an entry whose stats do not decode is a miss.
func decodeRoot(pe *cache.PhaseEntry, emits []Phase) (memEntry, bool) {
	e := memEntry{module: pe.Module, artifacts: make(map[Phase]string, len(emits))}
	for _, ph := range emits {
		e.artifacts[ph] = pe.Blobs[string(ph)]
		if ph == PhaseEmitStats {
			var stt core.Stats
			if json.Unmarshal([]byte(pe.Blobs[rootStatsJSON]), &stt) != nil {
				return memEntry{}, false
			}
			e.stats = &stt
		}
	}
	return e, e.module != ""
}

// walk runs the graph for one request. The front end (parse, sem,
// lower) always executes — its outputs are cheap and feed every key
// downstream — while efsm, efsm-min, and the emit phases are served
// from their snapshot tiers whenever their keys match.
func (r *Runner) walk(req Request, parseKey string) *Result {
	r.count(PhaseDesign, StatusRebuilt)
	res := &Result{Root: StatusRebuilt, Artifacts: make(map[Phase]string), EmitErrs: make(map[Phase]error)}
	record := func(ph Phase, key string, st Status) {
		res.Phases = append(res.Phases, PhaseResult{Phase: ph, Status: st, Key: key})
		r.count(ph, st)
	}
	fail := func(ph Phase, key string, err error) *Result {
		record(ph, key, StatusFailed)
		res.Err = err
		res.ErrPhase = ph
		return res
	}

	// parse + sem: the file-level compilation unit. The front end runs
	// once per (path, source, preprocessor config) and is shared by
	// every module of the file — lowering never mutates the analysis
	// tables (sem.Info.Derive), so the unit fans out safely. The
	// request that builds the unit records rebuilt; followers record
	// shared. Neither phase stores a snapshot (sem's tables are
	// pointer-keyed, and no build reads a parsed file back); their keys
	// anchor the chain.
	u, built := r.unitFor(req, parseKey)
	frontStatus := StatusShared
	if built {
		frontStatus = StatusRebuilt
	}
	if u.err != nil && u.errPhase == PhaseParse {
		return fail(PhaseParse, u.parseKey, u.err)
	}
	record(PhaseParse, u.parseKey, frontStatus)
	if u.err != nil {
		return fail(PhaseSem, u.semKey, u.err)
	}
	record(PhaseSem, u.semKey, frontStatus)
	file, info, semKey := u.file, u.info, u.semKey

	// Diagnostics below here are per-request: the unit's front-end list
	// is shared across concurrent module walks and must stay read-only.
	var diags source.DiagList

	// Resolve the module selection (the eclc "last module" convention).
	module := req.Module
	if module == "" {
		mods := file.Modules()
		if len(mods) == 0 {
			return fail(PhaseLower, "", fmt.Errorf("no modules in %s", req.Path))
		}
		module = mods[len(mods)-1].Name
	}
	res.Module = module

	// lower: the reactive/data split. Cheap (linear), so it always
	// runs; its key anchors the analyze key, and nothing reads a
	// lowered snapshot back, so none is stored.
	lowerKey := KeyLower(semKey, module, req.Opts.Policy)
	low, err := lower.Lower(info, module, req.Opts.Policy, &diags)
	if err != nil {
		return fail(PhaseLower, lowerKey, err)
	}
	record(PhaseLower, lowerKey, StatusRebuilt)

	structFP, dataFP, err := fingerprints(u.envFP, low)
	if err != nil {
		// A module the codec cannot address is compiled uncached.
		structFP, dataFP = "", ""
	}

	// efsm: synthesis, or snapshot replay when the structural
	// fingerprint (and thus the key) is unchanged.
	efsmKey := ""
	if structFP != "" {
		efsmKey = KeyEFSM(structFP, req.Opts.Compile)
	}
	machine, st, err := r.machinePhase(PhaseEFSM, efsmKey, low, structFP, func() (*efsm.Machine, error) {
		return compile.CompileWith(low, req.Opts.Compile)
	})
	if err != nil {
		return fail(PhaseEFSM, efsmKey, err)
	}
	record(PhaseEFSM, efsmKey, st)

	final := machine
	machineKey := efsmKey
	if req.Opts.Minimize {
		minKey := ""
		if efsmKey != "" {
			minKey = KeyEFSMMin(efsmKey)
		}
		final, st, err = r.machinePhase(PhaseEFSMMin, minKey, low, structFP, func() (*efsm.Machine, error) {
			m, _ := efsm.Minimize(machine)
			return m, nil
		})
		if err != nil {
			return fail(PhaseEFSMMin, minKey, err)
		}
		record(PhaseEFSMMin, minKey, st)
		machineKey = minKey
	}

	prog := core.NewProgram(file, info, &diags, req.Opts)
	res.Design = &core.Design{Program: prog, Lowered: low, Machine: final}

	// analyze-file: the design-level rules over the whole file's
	// interfaces. They ride the shared compilation unit — the first
	// request of a file runs (or replays) them, every other module of
	// the file records shared — and snapshot under the sem key.
	if req.Analyze {
		fs, st := r.fileAnalyze(u)
		res.FileFindings = fs
		record(PhaseAnalyzeFile, u.fileKey, st)
	}

	// analyze: the static-analysis phase. Findings serialize as a
	// snapshot of their own, so a warm rebuild of an unchanged module
	// replays the diagnostics without re-walking the IRs.
	if req.Analyze {
		key := ""
		if machineKey != "" {
			key = KeyAnalyze(machineKey, lowerKey)
		}
		fs, st := r.findingsPhase(PhaseAnalyze, key, func() []analyze.Finding { return analyze.Analyze(res.Design) })
		res.Findings = fs
		record(PhaseAnalyze, key, st)
	}

	// Emission: per-phase keyed by machine + data bodies, so a
	// data-function edit re-renders here while the machine replays.
	for _, ph := range req.Emits {
		if _, done := res.Artifacts[ph]; done {
			continue
		}
		key := ""
		if machineKey != "" {
			key = KeyEmit(ph, machineKey, dataFP, req.GoPackage)
		}
		text, stats, st, err := r.emitPhase(ph, key, res.Design, req.GoPackage)
		if err != nil {
			res.EmitErrs[ph] = err
			record(ph, key, StatusFailed)
			continue
		}
		res.Artifacts[ph] = text
		if stats != nil {
			res.Stats = stats
		}
		record(ph, key, st)
	}
	return res
}

// emitPhase serves one emit phase from the tiers, falling back to
// rendering. stats is set for the stats phase only, and is the
// caller's own copy.
func (r *Runner) emitPhase(ph Phase, key string, design *core.Design, goPkg string) (text string, stats *core.Stats, st Status, err error) {
	if e, ok := r.memGet(key); ok {
		return e.text, e.statsCopy(), StatusMemHit, nil
	}
	want := []string{blobText}
	if ph == PhaseEmitStats {
		want = append(want, blobJSON)
	}
	if pe, st, ok := r.fetch(ph, key, want); ok {
		e := memEntry{text: pe.Blobs[blobText]}
		if ph == PhaseEmitStats {
			var stt core.Stats
			if json.Unmarshal([]byte(pe.Blobs[blobJSON]), &stt) == nil {
				e.stats = &stt
			}
		}
		if ph != PhaseEmitStats || e.stats != nil {
			r.memPut(key, e, true)
			return e.text, e.statsCopy(), st, nil
		}
	}
	text, err = Emit(design, ph, goPkg)
	if err != nil {
		return "", nil, StatusFailed, err
	}
	e := memEntry{text: text}
	if ph == PhaseEmitStats {
		stt := design.Stats()
		e.stats = &stt
	}
	stored := false
	if r.persistent(key) {
		blobs := map[string]string{blobText: text}
		if e.stats != nil {
			if js, err := json.Marshal(e.stats); err == nil {
				blobs[blobJSON] = string(js)
			}
		}
		stored = r.persist(key, &cache.PhaseEntry{Phase: string(ph), Blobs: blobs})
	}
	r.memPut(key, e, stored)
	return text, e.statsCopy(), StatusRebuilt, nil
}

// statsCopy returns a copy of the entry's stats, or nil.
func (e memEntry) statsCopy() *core.Stats { return copyStats(e.stats) }

// copyStats returns a copy of st, or nil.
func copyStats(st *core.Stats) *core.Stats {
	if st == nil {
		return nil
	}
	cp := *st
	return &cp
}

// machinePhase serves one machine-producing phase (efsm or efsm-min)
// from the tiers, falling back to build. A memory hit is rebound to
// the walk's own lowering; a failed rebind or decode (corrupt
// snapshot, drifted module) falls through to the next tier and
// finally to a rebuild.
func (r *Runner) machinePhase(ph Phase, key string, low *lower.Result, structFP string, build func() (*efsm.Machine, error)) (*efsm.Machine, Status, error) {
	if e, ok := r.memGet(key); ok {
		if m, err := e.rebind(low, structFP); err == nil {
			return m, StatusMemHit, nil
		}
	}
	if e, st, ok := r.fetch(ph, key, []string{blobEFSM}); ok {
		if m, err := DecodeMachine([]byte(e.Blobs[blobEFSM]), low, structFP); err == nil {
			r.memPut(key, memEntry{machine: m, low: low, structFP: structFP}, true)
			return m, st, nil
		}
	}
	m, err := build()
	if err != nil {
		return nil, StatusFailed, err
	}
	stored := false
	if r.persistent(key) && !r.alreadyStored(key) {
		if enc, err := EncodeMachine(m, low, structFP); err == nil {
			stored = r.persist(key, &cache.PhaseEntry{Phase: string(ph), Blobs: map[string]string{blobEFSM: string(enc)}})
		}
	}
	r.memPut(key, memEntry{machine: m, low: low, structFP: structFP}, stored)
	return m, StatusRebuilt, nil
}

// rebind binds a remembered machine to a walk's fresh lowering through
// the snapshot codec, so a data-only edit in a long-lived process still
// gets the new data functions and expressions, and every integrity
// check of the disk path applies.
func (e memEntry) rebind(low *lower.Result, structFP string) (*efsm.Machine, error) {
	enc, err := EncodeMachine(e.machine, e.low, e.structFP)
	if err != nil {
		return nil, err
	}
	return DecodeMachine(enc, low, structFP)
}

func (r *Runner) alreadyStored(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stored[key]
}
