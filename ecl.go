// Package ecl reproduces "ECL: A Specification Environment for
// System-Level Design" (Lavagno & Sentovich, DAC 1999): a compiler and
// simulation environment for the ECL language — ANSI C extended with
// Esterel's reactive constructs (signals, await, emit, present, abort,
// weak_abort, suspend, par, modules).
//
// The pipeline follows the paper's three phases:
//
//  1. an ECL file is parsed and split into a reactive part (an Esterel
//     kernel program), extracted C data functions, and glue;
//  2. the reactive part is compiled into an extended finite state
//     machine (EFSM);
//  3. the EFSM is synthesized to software (C or Go) or, when the data
//     part is empty, to hardware (a gate-level netlist rendered as
//     Verilog or VHDL).
//
// A reference interpreter provides Esterel's logical semantics with
// constructive causality analysis; system-level simulation runs a
// design either as one synchronous task or as several asynchronous
// tasks under a simulated RTOS with MIPS R3000-style cost accounting,
// which regenerates the paper's Table 1.
//
// Execution goes through the unified Machine API: a compiled design
// opens on any registered backend (the reference interpreter, the
// compiled EFSM, its minimized variant, or the RTOS system
// simulation), all stepping one synchronous instant at a time with
// string-keyed typed signal values. Canonical JSONL traces record,
// replay, and diff runs across backends, and a Session serves many
// concurrently stepping machines — with snapshot forking — from one
// process.
//
// Quick start:
//
//	prog, err := ecl.Parse("abro.ecl", src, ecl.Options{})
//	design, err := prog.Compile("abro")
//	m, err := ecl.OpenMachine("efsm", design) // or "interp", "efsm-min", "efsm-table", "sim"
//	out, err := m.Step(map[string]ecl.Value{"A": {}})
//
// Backends built for the hot path additionally implement SlotStepper —
// slot-indexed, allocation-free stepping resolved through Ports; the
// batch layers detect and use it automatically. For many machines at
// once use
//
//	s := ecl.NewSession()
//	id, err := s.Open("", "efsm", design)
//	out, err := s.Step(id, inputs)
package ecl

import (
	"io"
	"time"

	"repro/internal/analyze"
	"repro/internal/cache"
	"repro/internal/cache/remote"
	"repro/internal/core"
	"repro/internal/cval"
	"repro/internal/driver"
	"repro/internal/exec"
	"repro/internal/lower"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/simd"
	"repro/internal/source"
)

// Options configures a compilation; see core.Options.
type Options = core.Options

// Program is an analyzed translation unit.
type Program = core.Program

// Design is a compiled module.
type Design = core.Design

// Stats summarizes a compiled design.
type Stats = core.Stats

// Splitter policies (the paper's current scheme and its future-work
// alternative).
const (
	// MaximalReactive translates as much as possible into the reactive
	// part (the paper's implemented scheme).
	MaximalReactive = lower.MaximalReactive
	// MinimalReactive extracts every pure-data run as C (the paper's
	// Section 6 legacy-code scheme).
	MinimalReactive = lower.MinimalReactive
)

// Parse preprocesses, parses, and analyzes ECL source text.
func Parse(name, src string, opts Options) (*Program, error) {
	return core.Parse(name, src, opts)
}

// Finding is one static-analysis diagnostic: a stable rule ID
// (ECL001…), severity, source position, and message.
type Finding = analyze.Finding

// AnalyzerRule describes one static-analysis rule (ID, the IR level it
// inspects, one-line doc).
type AnalyzerRule = analyze.Rule

// Analyze runs every static-analysis rule over a compiled design and
// returns the findings, sorted by position. Batch callers get cached
// analysis through BuildRequest.Analyze instead.
func Analyze(d *Design) []Finding { return analyze.Analyze(d) }

// AnalyzeFile runs the design-level rules (interface wiring across
// every module of a translation unit) over a parsed program and
// returns the findings, sorted by position. Module-level rules run
// through Analyze; the pipeline runs both when asked to analyze.
func AnalyzeFile(p *Program) []Finding { return analyze.AnalyzeFile(p.Info) }

// AnalyzerRules lists the shipped static-analysis rules, in report
// order.
func AnalyzerRules() []AnalyzerRule { return analyze.Rules() }

// Driver orchestrates batch compilation: many modules at once over a
// bounded worker pool, with content-hash cached designs and structured
// diagnostics. It is the entry point the eclc/eclsim/eclbench commands
// share; library users get it here unchanged.
type Driver = driver.Driver

// BuildRequest asks a Driver for one module compiled to a target set.
type BuildRequest = driver.Request

// BuildResult reports one BuildRequest's outcome.
type BuildResult = driver.Result

// BuildDiagnostic is a structured build message (file/module/phase).
type BuildDiagnostic = driver.Diagnostic

// Severity grades a BuildDiagnostic.
type Severity = source.Severity

// Diagnostic severities.
const (
	SeverityNote    = source.Note
	SeverityWarning = source.Warning
	SeverityError   = source.Error
)

// Target names an artifact the driver can emit.
type Target = driver.Target

// Phase names the pipeline stage a diagnostic originated in.
type Phase = driver.Phase

// Artifact targets.
const (
	TargetEsterel = driver.TargetEsterel
	TargetC       = driver.TargetC
	TargetGo      = driver.TargetGo
	TargetGlue    = driver.TargetGlue
	TargetDot     = driver.TargetDot
	TargetTable   = driver.TargetTable
	TargetVerilog = driver.TargetVerilog
	TargetVHDL    = driver.TargetVHDL
	TargetStats   = driver.TargetStats
)

// Pipeline phases.
const (
	PhaseRead    = driver.PhaseRead
	PhaseParse   = driver.PhaseParse
	PhaseLower   = driver.PhaseLower
	PhaseCompile = driver.PhaseCompile
	PhaseEmit    = driver.PhaseEmit
)

// NewDriver returns a batch-compilation driver with the given
// worker-pool size (<= 0 means GOMAXPROCS).
func NewDriver(workers int) *Driver { return driver.New(workers) }

// CacheStats snapshots a Driver's cache traffic across every tier
// (memory, the persistent phase store, the remote cache): requests
// served whole by their root entry, walks, and the per-phase breakdown
// in its Phases field.
type CacheStats = driver.CacheStats

// PhaseStats breaks a Driver's cache traffic down per pipeline phase
// (parse, sem, lower, efsm, efsm-min, emit-*, stats): how often each
// phase replayed from a cache tier versus rebuilt.
type PhaseStats = driver.PhaseStats

// PhaseCounts is one pipeline phase's aggregated cache traffic.
type PhaseCounts = pipeline.PhaseCounts

// PipelinePhase names one node of the compilation phase graph.
type PipelinePhase = pipeline.Phase

// PhaseResult records how one phase of one build was satisfied
// (rebuilt, memory hit, disk hit); BuildResult.Phases carries them.
type PhaseResult = pipeline.PhaseResult

// ExpandError is the structured failure ExpandModules reports,
// carrying file/phase diagnostics for the unexpandable file.
type ExpandError = driver.ExpandError

// DiskCache is the persistent content-addressed phase store; assign
// one to Driver.Disk to make separate processes share compiled phases
// and artifacts by content key.
type DiskCache = cache.Store

// CacheGCResult reports one GCCache pass.
type CacheGCResult = cache.GCResult

// RemoteCache is the shared cache tier's client: it speaks the HTTP
// content-addressed protocol of internal/cache/remote (served by the
// eclcached binary) and slots into a Driver as the third tier behind
// memory and the local disk. Assign one to Driver.Remote so a whole
// fleet shares compiled artifacts; reads degrade to misses on any
// failure, writes are asynchronous and best-effort.
type RemoteCache = remote.Client

// RemoteCacheStats snapshots a RemoteCache's traffic counters.
type RemoteCacheStats = remote.Stats

// DialRemoteCache returns a client for the shared cache server at url
// (an eclcached instance; see also the $ECL_REMOTE_CACHE convention).
// Dialing does not contact the server — an unreachable server surfaces
// as cache misses, never as errors. Close (or Flush) the client to
// drain its pending uploads before exiting.
func DialRemoteCache(url string) (*RemoteCache, error) { return remote.Dial(url) }

// CacheDir returns the persistent cache's default location:
// $ECL_CACHE_DIR, else the user cache dir's "ecl" subdirectory.
func CacheDir() (string, error) { return cache.DefaultDir() }

// OpenCache opens (creating if needed) the persistent artifact cache
// rooted at dir; "" uses CacheDir().
func OpenCache(dir string) (*DiskCache, error) { return cache.Open(dir) }

// GCCache trims the persistent cache at dir ("" = CacheDir()) to
// maxBytes and maxAge in LRU order; zero bounds skip that phase.
func GCCache(dir string, maxBytes int64, maxAge time.Duration) (CacheGCResult, error) {
	store, err := cache.Open(dir)
	if err != nil {
		return CacheGCResult{}, err
	}
	return store.GC(maxBytes, maxAge)
}

// ParseTargets parses a comma-separated target list.
func ParseTargets(s string) ([]Target, error) { return driver.ParseTargets(s) }

// ExpandModules returns one request per module in the request's file,
// for batch-compiling whole files.
func ExpandModules(req BuildRequest) ([]BuildRequest, error) {
	return driver.ExpandModules(req)
}

// Value is a typed runtime signal value (the invalid zero Value marks
// a pure presence).
type Value = cval.Value

// Machine is one runnable instance of a compiled design, stepping one
// synchronous instant at a time with string-keyed signal values. All
// execution backends implement it.
type Machine = exec.Machine

// MachineSignal describes one interface signal of a Machine.
type MachineSignal = exec.Signal

// Ports is the slot-indexed view of a machine's signal interface:
// names resolve to fixed integer slots once at open time, so the hot
// path steps over arrays instead of maps.
type Ports = exec.Ports

// SlotStepper is the optional Machine extension interface for backends
// whose hot path is slot-indexed (efsm-table); traces, sessions, and
// benchmarks detect it and bypass per-instant map translation.
type SlotStepper = exec.SlotStepper

// StepResult reports one executed instant.
type StepResult = exec.Result

// Trace is a canonical JSONL execution record; traces diff bit-for-bit
// across backends.
type Trace = exec.Trace

// TraceEvent is one recorded instant of a Trace.
type TraceEvent = exec.Event

// Session manages many concurrently stepping machines (id-addressed,
// independently locked, snapshot-forkable).
type Session = exec.Session

// OpenMachine instantiates the named execution backend over a compiled
// design; Backends lists the valid names.
func OpenMachine(backend string, d *Design) (Machine, error) { return exec.Open(backend, d) }

// Backends lists the registered execution backends.
func Backends() []string { return exec.Backends() }

// NewSession returns an empty machine session.
func NewSession() *Session { return exec.NewSession() }

// RecordTrace steps the machine through the input instants and records
// a canonical trace.
func RecordTrace(m Machine, instants []map[string]Value) (*Trace, error) {
	return exec.Record(m, instants)
}

// ReplayTrace drives the machine with a recorded trace's inputs and
// returns the trace it actually produced.
func ReplayTrace(m Machine, t *Trace) (*Trace, error) { return exec.Replay(m, t) }

// DiffTraces compares two traces' observable behavior; nil means they
// agree.
func DiffTraces(a, b *Trace) error { return exec.Diff(a, b) }

// ReadTrace parses a JSONL trace.
func ReadTrace(r io.Reader) (*Trace, error) { return exec.ReadTrace(r) }

// SessionInfo describes one session machine's identity, interface, and
// progress.
type SessionInfo = exec.MachineInfo

// EncodeSnapshot serializes a machine's snapshot as a portable JSON
// blob (trace-style hex values) that DecodeSnapshot — possibly in
// another process — turns back into a restorable state. Backends
// without portable snapshots (sim) report ErrUnsupported.
func EncodeSnapshot(m Machine, snap exec.Snapshot, instant int) ([]byte, error) {
	return exec.EncodeSnapshot(m, snap, instant)
}

// DecodeSnapshot parses an EncodeSnapshot blob against a fresh machine
// of the same backend and module, returning the snapshot to Restore
// and the instant count it was taken at.
func DecodeSnapshot(m Machine, data []byte) (exec.Snapshot, int, error) {
	return exec.DecodeSnapshot(m, data)
}

// Daemon serves multi-tenant execution over HTTP — many concurrently
// stepping Session machines with batched stepping, idle-session
// eviction into the build cache, and transparent revival. The eclsimd
// binary is a thin main around it.
type Daemon = simd.Daemon

// DaemonConfig assembles a Daemon.
type DaemonConfig = simd.Config

// DaemonClient drives a Daemon over HTTP (the library behind
// eclsim -connect).
type DaemonClient = simd.Client

// DaemonOpenRequest asks a Daemon to compile a design and open a
// machine over it.
type DaemonOpenRequest = simd.OpenRequest

// DaemonMachineInfo describes one daemon machine.
type DaemonMachineInfo = simd.MachineInfo

// DaemonStats is a Daemon's /statsz payload.
type DaemonStats = simd.Stats

// NewDaemon assembles an execution daemon; serve it with http.Serve.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) { return simd.New(cfg) }

// DialDaemon returns a client for the execution daemon at url (an
// eclsimd instance).
func DialDaemon(url string) (*DaemonClient, error) { return simd.Dial(url) }

// Table1Config sizes the Table 1 workloads.
type Table1Config = sim.Table1Config

// Table1Row is one row of the reproduced Table 1.
type Table1Row = sim.Table1Row

// DefaultTable1Config mirrors the paper's testbench (500 packets).
func DefaultTable1Config() Table1Config { return sim.DefaultTable1Config() }

// Table1 regenerates the paper's Table 1 measurements.
func Table1(cfg Table1Config) ([]Table1Row, error) { return sim.Table1(cfg) }

// FormatTable1 renders Table 1 rows in the paper's layout.
func FormatTable1(rows []Table1Row) string { return sim.FormatTable1(rows) }
