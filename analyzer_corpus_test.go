// Analyzer robustness and soundness over the generated corpus: the
// abstract interpreter must digest every machine eclgen can produce
// without panicking, its findings must replay byte-identically from
// every cache tier, and its "certain trap" verdicts must agree with
// the concrete interpreter actually trapping.
package ecl

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cval"
	"repro/internal/eclgen"
	"repro/internal/exec"
	"repro/internal/pipeline"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/analyzer_corpus.golden from the current code")

const analyzerCorpusGolden = "testdata/analyzer_corpus.golden"

// analyzeCorpus runs every module of every seeded program through one
// Runner with analysis on and renders the merged findings as one
// deterministic string.
func analyzeCorpus(t *testing.T, r *pipeline.Runner, seeds int) string {
	t.Helper()
	out, _ := analyzeFiles(t, r, corpusFiles(seeds))
	return out
}

// corpusFiles lists the first seeds generated programs.
func corpusFiles(seeds int) []genFile {
	var files []genFile
	for seed := int64(1); seed <= int64(seeds); seed++ {
		files = append(files, genFile{fmt.Sprintf("gen%03d.ecl", seed), eclgen.Program(seed)})
	}
	return files
}

// genFile is one generated source file and the path it is compiled as.
type genFile struct{ path, src string }

// analyzeFiles runs every module of every file through one Runner with
// analysis on and renders the merged findings, deduplicated and
// sorted, one per line; n is the number of findings.
func analyzeFiles(t *testing.T, r *pipeline.Runner, files []genFile) (out string, n int) {
	t.Helper()
	var all []analyze.Finding
	seen := map[string]bool{}
	for _, file := range files {
		path := file.path
		req := pipeline.Request{Path: path, Source: file.src, Analyze: true}
		mods, _, err := r.Modules(req)
		if err != nil {
			t.Fatalf("%s: front end: %v", path, err)
		}
		for _, mod := range mods {
			req.Module = mod
			res := r.Run(req)
			if res.Err != nil {
				t.Fatalf("%s module %s: %v", path, mod, res.Err)
			}
			if res.Findings == nil || res.FileFindings == nil {
				t.Fatalf("%s module %s: analysis did not run", path, mod)
			}
			for _, f := range append(append([]analyze.Finding(nil), res.Findings...), res.FileFindings...) {
				if line := f.String(); !seen[line] {
					seen[line] = true
					all = append(all, f)
				}
			}
		}
	}
	analyze.Sort(all)
	var b strings.Builder
	for _, f := range all {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String(), len(all)
}

// phaseTraffic sums one phase's counters across a runner's stats.
func phaseTraffic(st pipeline.PhaseStats, ph pipeline.Phase) pipeline.PhaseCounts {
	return st[ph]
}

// TestAnalyzerGeneratedCorpus drives the analyzer over 100 generated
// programs and pins cold/warm determinism across all three snapshot
// tiers: memory (same runner re-run), disk (fresh runner, same store),
// and remote (fresh runner, store behind the remote interface).
func TestAnalyzerGeneratedCorpus(t *testing.T) {
	const seeds = 100
	dir := t.TempDir()
	store, err := cache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}

	cold := pipeline.NewRunner(store)
	coldOut := analyzeCorpus(t, cold, seeds)
	if c := phaseTraffic(cold.Stats(), pipeline.PhaseAnalyze); c.Rebuilds == 0 {
		t.Fatalf("cold run rebuilt no analyze phases: %+v", c)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(analyzerCorpusGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analyzerCorpusGolden, []byte(coldOut), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(analyzerCorpusGolden); err != nil {
		t.Errorf("%v (run with -update to create it)", err)
	} else if coldOut != string(want) {
		t.Errorf("cold findings diverge from %s", analyzerCorpusGolden)
	}

	// Batch order: the merged findings must not depend on the order the
	// files are built in, so analyze.Sort must order findings that
	// differ only in their module. Fresh runners over the warm store
	// keep the shuffles cheap; the merge is what they exercise.
	files := corpusFiles(seeds)
	for shuffle := int64(1); shuffle <= 8; shuffle++ {
		order := slices.Clone(files)
		rand.New(rand.NewSource(shuffle)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if out, _ := analyzeFiles(t, pipeline.NewRunner(store), order); out != coldOut {
			t.Errorf("shuffle %d: findings depend on the order files are built in", shuffle)
		}
	}

	// Memory tier: the same runner serves the same corpus from its
	// in-process snapshots.
	memOut := analyzeCorpus(t, cold, seeds)
	if memOut != coldOut {
		t.Errorf("memory replay diverged from cold findings")
	}

	// Disk tier: a fresh runner over the same store must replay every
	// findings snapshot without re-analyzing.
	warm := pipeline.NewRunner(store)
	warmOut := analyzeCorpus(t, warm, seeds)
	if warmOut != coldOut {
		t.Errorf("disk replay diverged from cold findings")
	}
	wc := phaseTraffic(warm.Stats(), pipeline.PhaseAnalyze)
	if wc.Rebuilds != 0 {
		t.Errorf("warm disk run re-analyzed %d modules", wc.Rebuilds)
	}
	if wc.DiskHits == 0 {
		t.Errorf("warm disk run had no analyze disk hits: %+v", wc)
	}
	wf := phaseTraffic(warm.Stats(), pipeline.PhaseAnalyzeFile)
	if wf.Rebuilds != 0 {
		t.Errorf("warm disk run re-ran %d analyze-file phases", wf.Rebuilds)
	}

	// Remote tier: same store served through the cache.Tier interface
	// with no local disk in front.
	remote := &pipeline.Runner{Remote: store}
	remoteOut := analyzeCorpus(t, remote, seeds)
	if remoteOut != coldOut {
		t.Errorf("remote replay diverged from cold findings")
	}
	rc := phaseTraffic(remote.Stats(), pipeline.PhaseAnalyze)
	if rc.Rebuilds != 0 {
		t.Errorf("remote run re-analyzed %d modules", rc.Rebuilds)
	}
	if rc.RemoteHits == 0 {
		t.Errorf("remote run had no analyze remote hits: %+v", rc)
	}
}

// TestAnalyzerMegaFileFindings pins the count and digest of the
// findings over every module of the seed-1 300-module generated file,
// a cheaper stand-in for the seed-1 1000-module file the benchmark vets.
func TestAnalyzerMegaFileFindings(t *testing.T) {
	const (
		wantN      = 985
		wantSHA256 = "8d01070139b61cceb85bdf7e1a5695075e47bb051c7797fd507dab396bcf6ada"
	)
	out, n := analyzeFiles(t, pipeline.NewRunner(nil), []genFile{{"mega.ecl", eclgen.File(1, 300)}})
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); n != wantN || got != wantSHA256 {
		t.Errorf("eclgen.File(1, 300): %d findings, sha256 %s; want %d, %s", n, got, wantN, wantSHA256)
	}
}

// TestAnalyzerTrapSoundness cross-checks ECL030 against the concrete
// interpreter: a program the analyzer says traps on every execution
// must actually abort when stepped.
func TestAnalyzerTrapSoundness(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("internal", "analyze", "testdata", "vet", "ecl030_div_by_zero.ecl"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Parse("ecl030.ecl", string(src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile("m")
	if err != nil {
		t.Fatal(err)
	}
	var hasECL030 bool
	for _, f := range analyze.Analyze(design) {
		if f.Rule == "ECL030" {
			hasECL030 = true
		}
	}
	if !hasECL030 {
		t.Fatal("analyzer did not flag the guaranteed division by zero")
	}
	m, err := exec.Open("interp", design)
	if err != nil {
		t.Fatal(err)
	}
	// The await is delayed, so the first presented trigger can pass
	// boot; within a few instants the division must trap.
	for i := 0; i < 5; i++ {
		if _, err := m.Step(map[string]cval.Value{"t": {}}); err != nil {
			if !strings.Contains(err.Error(), "zero") {
				t.Fatalf("trapped with unexpected error: %v", err)
			}
			return
		}
	}
	t.Fatal("ECL030-flagged program stepped 5 instants without trapping")
}
