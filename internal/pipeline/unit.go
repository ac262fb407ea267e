package pipeline

import (
	"sync"

	"repro/internal/analyze"
	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/sem"
	"repro/internal/source"
)

// unit is one file's shared front end. Parse and sem run once per
// (path, source, preprocessor config) — the unit key is the parse
// content key — and their outputs fan out to every per-module walk of
// the file. Lowering is non-mutating (sem.Info.Derive), so a single
// analyzed Info feeds any number of concurrent module compilations;
// at mega-design scale this turns the batch front end from
// O(modules x file) into O(file).
type unit struct {
	once     sync.Once
	parseKey string
	semKey   string
	file     *ast.File
	info     *sem.Info
	envFP    string // EnvFingerprint(file): every module's structural fingerprint folds it in
	err      error
	errPhase Phase // PhaseParse or PhaseSem when err != nil

	// Design-level analysis (the analyze-file phase) also runs once per
	// unit: the first analyzing request builds or replays the findings,
	// every later one shares them.
	fileOnce     sync.Once
	fileKey      string
	fileFindings []analyze.Finding
	fileStatus   Status
}

// unitFor returns the compilation unit for the request's file (whose
// parse key the caller computed), building it single-flight if this
// Runner has not seen the file yet. built reports whether this call did
// the building, so the caller can record the parse/sem phases as
// rebuilt vs shared. With NoShare set, a private unit is built per
// call — the per-module-front-end baseline the shared path is
// benchmarked against.
func (r *Runner) unitFor(req Request, parseKey string) (u *unit, built bool) {
	if r.NoShare {
		u = &unit{parseKey: parseKey}
		u.once.Do(func() { r.buildUnit(u, req) })
		return u, true
	}
	r.mu.Lock()
	if r.units == nil {
		r.units = make(map[string]*unit)
	}
	u, ok := r.units[parseKey]
	if !ok {
		u = &unit{parseKey: parseKey}
		r.units[parseKey] = u
	}
	r.mu.Unlock()
	u.once.Do(func() {
		built = true
		r.buildUnit(u, req)
	})
	return u, built
}

// Modules runs (or shares) the file-level front end for the request's
// file and returns its module names in source order. The unit it
// builds is the same one later per-module Runs reuse, so batch
// expansion itself seeds the shared front end; a build here is counted
// as a parse/sem rebuild in the runner's stats (the per-module walks
// then count as shared). The returned Phase localizes a front-end
// failure (PhaseParse or PhaseSem).
func (r *Runner) Modules(req Request) ([]string, Phase, error) {
	u, built := r.unitFor(req, KeyParse(req.Path, req.Source, req.Opts))
	if built {
		switch {
		case u.err != nil && u.errPhase == PhaseParse:
			r.count(PhaseParse, StatusFailed)
		case u.err != nil:
			r.count(PhaseParse, StatusRebuilt)
			r.count(PhaseSem, StatusFailed)
		default:
			r.count(PhaseParse, StatusRebuilt)
			r.count(PhaseSem, StatusRebuilt)
		}
	}
	if u.err != nil {
		return nil, u.errPhase, u.err
	}
	mods := u.file.Modules()
	names := make([]string, 0, len(mods))
	for _, m := range mods {
		names = append(names, m.Name)
	}
	return names, "", nil
}

// fileAnalyze serves the design-level (analyze-file) phase for one
// unit: snapshot replay when the sem-chained key hits a tier, a real
// AnalyzeFile run otherwise. The builder's status is whatever actually
// happened; sharing requests report StatusShared, mirroring parse/sem.
func (r *Runner) fileAnalyze(u *unit) ([]analyze.Finding, Status) {
	built := false
	u.fileOnce.Do(func() {
		built = true
		u.fileKey = KeyAnalyzeFile(u.semKey)
		u.fileFindings, u.fileStatus = r.findingsPhase(PhaseAnalyzeFile, u.fileKey, func() []analyze.Finding {
			return analyze.AnalyzeFile(u.info)
		})
	})
	if built || r.NoShare {
		return u.fileFindings, u.fileStatus
	}
	return u.fileFindings, StatusShared
}

// buildUnit runs the front end once for the unit's file: preprocess,
// parse, and semantic analysis. The unit's diagnostics stay local;
// failures surface through err/errPhase and every sharing request
// reports them identically.
func (r *Runner) buildUnit(u *unit, req Request) {
	var diags source.DiagList
	prep := pp.New(&diags, pp.MapResolver(req.Opts.Includes))
	for k, v := range req.Opts.Defines {
		prep.Define(k, v)
	}
	expanded := prep.Expand(source.NewFile(req.Path, req.Source))
	u.file = parser.ParseFile(expanded, &diags)
	if diags.HasErrors() {
		u.err, u.errPhase = diags.Err(), PhaseParse
		return
	}
	u.semKey = KeySem(u.parseKey)
	u.info = sem.Analyze(u.file, &diags)
	if diags.HasErrors() {
		u.err, u.errPhase = diags.Err(), PhaseSem
		return
	}
	u.envFP = EnvFingerprint(u.file)
}
