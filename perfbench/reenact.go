package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/analyze"
	"repro/internal/analyze/absint"
	"repro/internal/ast"
	"repro/internal/cache"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/efsm"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/pp"
	"repro/internal/sem"
	"repro/internal/source"
)

// Blob names inside the pipeline's phase snapshots. The re-enactment
// must use the runner's names to read the snapshots a real build wrote.
const (
	blobAST      = "ast"
	blobKernel   = "kernel"
	blobEFSM     = "efsm"
	blobText     = "text"
	blobJSON     = "json"
	blobFindings = "findings"
	statsJSONKey = "stats#json" // the driver's v1 key for the stats blob
)

// reenactment replays one `eclc -all` batch in pipeline order on one
// goroutine, calling the same public functions the driver and the
// phase runner call, each inside a span named after its layer. What it
// cannot call from outside, it leaves out: the driver's whole-source
// cache key and in-memory memo, its artifact bookkeeping and the
// worker pool. That remainder is driver.unattributed_ms. Its own v1
// manifests are keyed by the parse key and module, not by the
// driver's private key.
type reenactment struct {
	rec   *recorder // nil: untraced
	trace int64
	root  int64
	store *cache.Store
	vet   bool

	arts        map[string]string // module -> artifact digest
	findings    []string
	states      int
	transitions int
	cgenBytes   int
	absintNS    int64 // the absint probe, which is not part of the op
}

// do runs f inside a span of the given layer.
func (re *reenactment) do(layer string, f func()) {
	sp := re.rec.begin(re.trace, re.root, layer)
	f()
	sp.end()
}

// getPhase and putPhase are the runner's v2 store traffic, get and put
// the driver's v1 traffic; without a store (a memory-only build) there
// is none.
func (re *reenactment) getPhase(key string, want ...string) (e *cache.PhaseEntry, ok bool) {
	if re.store != nil {
		re.do("cache.read", func() { e, ok = re.store.GetPhase(key, want) })
	}
	return e, ok
}

func (re *reenactment) putPhase(key string, ph pipeline.Phase, blobs map[string]string) {
	if re.store != nil {
		re.do("cache.write", func() { re.store.PutPhase(key, &cache.PhaseEntry{Phase: string(ph), Blobs: blobs}) })
	}
}

func (re *reenactment) get(key string, want []string) (e *cache.Entry, ok bool) {
	if re.store != nil {
		re.do("cache.read", func() { e, ok = re.store.Get(key, want) })
	}
	return e, ok
}

func (re *reenactment) put(key, mod string, arts map[string]string) {
	if re.store != nil {
		re.do("cache.write", func() { re.store.Put(key, &cache.Entry{Module: mod, Artifacts: arts}) })
	}
}

// build re-enacts one batch of every module in the file.
func (re *reenactment) build(path, src string) error {
	root := re.rec.begin(re.trace, 0, "op")
	re.root = root.id
	defer root.end()
	re.arts = map[string]string{}
	opts := core.Options{}

	// The file unit, which ExpandModules builds once per file.
	var diags source.DiagList
	var file *ast.File
	var info *sem.Info
	re.do("parser", func() {
		expanded := pp.New(&diags, pp.MapResolver(opts.Includes)).Expand(source.NewFile(path, src))
		file = parser.ParseFile(expanded, &diags)
	})
	if diags.HasErrors() {
		return diags.Err()
	}
	var parseKey, semKey, astText string
	re.do("pipeline.key", func() { parseKey = pipeline.KeyParse(path, src, opts) })
	re.do("pipeline.codec", func() { astText = ast.String(file) })
	re.putPhase(parseKey, pipeline.PhaseParse, map[string]string{blobAST: astText})
	re.do("pipeline.key", func() { semKey = pipeline.KeySem(parseKey) })
	re.do("sem", func() { info = sem.Analyze(file, &diags) })
	if diags.HasErrors() {
		return diags.Err()
	}
	findings := map[string]bool{}
	if re.vet {
		fs, err := re.fileFindings(info, semKey)
		if err != nil {
			return err
		}
		for _, f := range fs {
			findings[f.String()] = true
		}
	}
	want := []string{"esterel", "c", "glue", "stats", statsJSONKey}
	for _, mod := range file.Modules() {
		// The v1 manifest probe; the driver skips it when analyzing.
		sum := sha256.Sum256([]byte(parseKey + "\x00" + mod.Name))
		v1Key := hex.EncodeToString(sum[:])
		if !re.vet {
			if e, ok := re.get(v1Key, want); ok {
				re.arts[mod.Name] = digestTargets(func(t driver.Target) string { return e.Artifacts[string(t)] })
				continue
			}
		}
		fs, err := re.module(file, info, semKey, mod.Name, path, src, v1Key, opts, &diags)
		if err != nil {
			return fmt.Errorf("module %s: %w", mod.Name, err)
		}
		for _, f := range fs {
			findings[f.String()] = true
		}
	}
	re.findings = re.findings[:0]
	for f := range findings {
		re.findings = append(re.findings, f)
	}
	sort.Strings(re.findings)
	return nil
}

// fileFindings is the analyze-file phase, once per file.
func (re *reenactment) fileFindings(info *sem.Info, semKey string) ([]analyze.Finding, error) {
	var key string
	var fs []analyze.Finding
	re.do("pipeline.key", func() { key = pipeline.KeyAnalyzeFile(semKey) })
	if blobs, ok := re.getPhase(key, blobFindings); ok {
		var err error
		re.do("pipeline.codec", func() { fs, err = analyze.Decode([]byte(blobs.Blobs[blobFindings])) })
		return fs, err
	}
	re.do("analyze.file", func() { fs = analyze.AnalyzeFile(info) })
	var enc []byte
	var err error
	re.do("pipeline.codec", func() { enc, err = analyze.Encode(fs) })
	if err != nil {
		return nil, err
	}
	re.putPhase(key, pipeline.PhaseAnalyzeFile, map[string]string{blobFindings: string(enc)})
	return fs, nil
}

// module walks one module through the phase graph as Runner.Run does,
// then persists its artifacts the way the driver does.
func (re *reenactment) module(file *ast.File, info *sem.Info, semKey, mod, path, src, v1Key string,
	opts core.Options, diags *source.DiagList) ([]analyze.Finding, error) {
	var lowerKey, structFP, dataFP, efsmKey string
	var low *lower.Result
	var err error
	// Runner.Run keys the file unit on every request.
	re.do("pipeline.key", func() {
		pipeline.KeyParse(path, src, opts)
		lowerKey = pipeline.KeyLower(semKey, mod, opts.Policy)
	})
	re.do("lower", func() { low, err = lower.Lower(info, mod, opts.Policy, diags) })
	if err != nil {
		return nil, err
	}
	re.do("pipeline.fingerprint", func() { structFP, dataFP, err = pipeline.Fingerprints(file, low) })
	if err != nil {
		return nil, err
	}
	var lowSnap []byte
	re.do("pipeline.codec", func() { lowSnap, err = pipeline.EncodeLowered(low) })
	if err != nil {
		return nil, err
	}
	re.putPhase(lowerKey, pipeline.PhaseLower, map[string]string{blobKernel: string(lowSnap)})

	re.do("pipeline.key", func() { efsmKey = pipeline.KeyEFSM(structFP, opts.Compile) })
	var machine *efsm.Machine
	snap, hit := re.getPhase(efsmKey, blobEFSM)
	if hit {
		re.do("pipeline.codec", func() { machine, err = pipeline.DecodeMachine([]byte(snap.Blobs[blobEFSM]), low, structFP) })
		hit = err == nil
	}
	if !hit {
		re.do("compile", func() { machine, err = compile.CompileWith(low, opts.Compile) })
		if err != nil {
			return nil, err
		}
		var enc []byte
		re.do("pipeline.codec", func() { enc, err = pipeline.EncodeMachine(machine, low, structFP) })
		if err != nil {
			return nil, err
		}
		re.putPhase(efsmKey, pipeline.PhaseEFSM, map[string]string{blobEFSM: string(enc)})
	}
	design := &core.Design{Program: core.NewProgram(file, info, diags, opts), Lowered: low, Machine: machine}

	var findings []analyze.Finding
	if re.vet {
		if findings, err = re.analyze(design, efsmKey, lowerKey); err != nil {
			return nil, err
		}
	}

	arts := map[string]string{}
	var stats core.Stats
	for _, t := range megaTargets {
		ph, _ := pipeline.EmitPhase(string(t))
		want := []string{blobText}
		if ph == pipeline.PhaseEmitStats {
			want = append(want, blobJSON)
		}
		var key string
		re.do("pipeline.key", func() { key = pipeline.KeyEmit(ph, efsmKey, dataFP, "") })
		if e, ok := re.getPhase(key, want...); ok {
			arts[string(t)] = e.Blobs[blobText]
			if ph == pipeline.PhaseEmitStats {
				re.do("pipeline.codec", func() { err = json.Unmarshal([]byte(e.Blobs[blobJSON]), &stats) })
				if err != nil {
					return nil, err
				}
				arts[statsJSONKey] = e.Blobs[blobJSON]
			}
			continue
		}
		blobs := map[string]string{}
		re.do("cgen", func() {
			var text string
			text, err = pipeline.Emit(design, ph, "")
			blobs[blobText] = text
			if ph == pipeline.PhaseEmitStats && err == nil {
				stats = design.Stats()
				var js []byte
				js, err = json.Marshal(&stats)
				blobs[blobJSON] = string(js)
			}
		})
		if err != nil {
			return nil, err
		}
		re.cgenBytes += len(blobs[blobText])
		arts[string(t)] = blobs[blobText]
		if js, ok := blobs[blobJSON]; ok {
			arts[statsJSONKey] = js
		}
		re.putPhase(key, ph, blobs)
	}
	re.states += stats.EFSM.States
	re.transitions += stats.EFSM.Leaves
	re.put(v1Key, mod, arts)
	re.arts[mod] = digestTargets(func(t driver.Target) string { return arts[string(t)] })
	return findings, nil
}

// analyze is the analyze phase. It also runs the abstract interpreter
// alone on the same machine, as a probe of its share: the probe's span
// is a child of the op, but its time is not part of the op.
func (re *reenactment) analyze(design *core.Design, efsmKey, lowerKey string) ([]analyze.Finding, error) {
	var key string
	var fs []analyze.Finding
	var err error
	re.do("pipeline.key", func() { key = pipeline.KeyAnalyze(efsmKey, lowerKey) })
	if e, ok := re.getPhase(key, blobFindings); ok {
		re.do("pipeline.codec", func() { fs, err = analyze.Decode([]byte(e.Blobs[blobFindings])) })
		return fs, err
	}
	re.do("analyze", func() { fs = analyze.Analyze(design) })
	t0 := time.Now()
	re.do("absint", func() { absint.Analyze(design.Machine, nil) })
	re.absintNS += int64(time.Since(t0))
	var enc []byte
	re.do("pipeline.codec", func() { enc, err = analyze.Encode(fs) })
	if err != nil {
		return nil, err
	}
	re.putPhase(key, pipeline.PhaseAnalyze, map[string]string{blobFindings: string(enc)})
	return fs, nil
}
