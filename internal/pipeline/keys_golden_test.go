package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/eclgen"
	"repro/internal/lower"
	"repro/internal/paperex"
	"repro/internal/source"
)

var update = flag.Bool("update", false, "rewrite testdata/keys.golden and testdata/design_keys.golden from the current code")

const (
	keysGolden       = "testdata/keys.golden"
	designKeysGolden = "testdata/design_keys.golden"
)

// keyLine renders every content key the pipeline derives for one
// module, its two fingerprints, and the digest of its lowered snapshot,
// as one line. A module the codec cannot address keys only its front
// end, as Runner.Run does.
func keyLine(t *testing.T, path, src, module string, opts core.Options) string {
	t.Helper()
	prog, err := core.Parse(path, src, opts)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var diags source.DiagList
	low, err := lower.Lower(prog.Info, module, opts.Policy, &diags)
	if err != nil {
		t.Fatalf("%s/%s: lower: %v", path, module, err)
	}
	parseKey := KeyParse(path, src, opts)
	semKey := KeySem(parseKey)
	lowerKey := KeyLower(semKey, module, opts.Policy)
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s parse=%s sem=%s lower=%s analyze-file=%s", path, module, parseKey, semKey, lowerKey, KeyAnalyzeFile(semKey))
	structFP, dataFP, err := Fingerprints(prog.File, low)
	if err != nil {
		fmt.Fprintf(&b, " uncached=%q", err)
		return b.String()
	}
	efsmKey := KeyEFSM(structFP, opts.Compile)
	minKey := KeyEFSMMin(efsmKey)
	fmt.Fprintf(&b, " struct=%s data=%s efsm=%s efsm-min=%s analyze=%s analyze-min=%s",
		structFP, dataFP, efsmKey, minKey, KeyAnalyze(efsmKey, lowerKey), KeyAnalyze(minKey, lowerKey))
	for _, ph := range AllPhases() {
		if TargetName(ph) == "" {
			continue
		}
		fmt.Fprintf(&b, " %s=%s", ph, KeyEmit(ph, efsmKey, dataFP, ""))
	}
	fmt.Fprintf(&b, " emit-go/pkg=%s", KeyEmit(PhaseEmitGo, minKey, dataFP, "genpkg"))
	enc, err := EncodeLowered(low)
	if err != nil {
		t.Fatalf("%s/%s: EncodeLowered failed after Fingerprints succeeded: %v", path, module, err)
	}
	sum := sha256.Sum256(enc)
	fmt.Fprintf(&b, " lowered=%s", hex.EncodeToString(sum[:]))
	return b.String()
}

// keyLines renders keyLine for every module of a source.
func keyLines(t *testing.T, path, src string, opts core.Options) []string {
	t.Helper()
	prog, err := core.Parse(path, src, opts)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var out []string
	for _, m := range prog.Modules() {
		out = append(out, keyLine(t, path, src, m, opts))
	}
	return out
}

// corpusFile is one source of the key and codec corpus.
type corpusFile struct {
	path, src string
	opts      core.Options
}

// keyCorpus lists examples/*.ecl, the paper examples, one request with
// every keyed option set, and the eclgen corpus.
func keyCorpus(t *testing.T) []corpusFile {
	t.Helper()
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.ecl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no examples/*.ecl found")
	}
	sort.Strings(examples)
	var files []corpusFile
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, corpusFile{filepath.Base(path), string(src), core.Options{}})
	}
	for _, name := range []string{"stack", "buffer", "abro", "runner"} {
		files = append(files, corpusFile{"paperex/" + name + ".ecl", paperSource(name), core.Options{}})
	}
	// Every keyed option away from its zero value: defines, includes,
	// the minimal-reactive policy and the compile budgets.
	files = append(files, corpusFile{"opts/abro.ecl", "#include \"h.h\"\n" + paperex.ABRO, core.Options{
		Defines:  map[string]string{"N": "4", "K": ""},
		Includes: map[string]string{"h.h": "#define M 1\n"},
		Policy:   lower.MinimalReactive,
		Compile:  compile.Options{MaxStates: 7, MaxRunsPerState: 11, MaxDecisionsPerRun: 13},
	}})
	for seed := int64(1); seed <= 100; seed++ {
		files = append(files, corpusFile{fmt.Sprintf("gen%03d.ecl", seed), eclgen.Program(seed), core.Options{}})
	}
	return files
}

// TestKeysGolden pins every phase key, both fingerprints and the
// lowered snapshot's bytes over keyCorpus, plus one digest over every
// module of a 300-module generated file. A change to any of them
// silently turns warm disk and remote stores cold (or, worse, lets a
// stale snapshot replay), so the key scheme and codecs must reproduce
// them exactly; only a deliberate keyGeneration or snapCodecVersion
// bump may re-record this file with -update.
func TestKeysGolden(t *testing.T) {
	var lines []string
	for _, f := range keyCorpus(t) {
		lines = append(lines, keyLines(t, f.path, f.src, f.opts)...)
	}
	mega := keyLines(t, "mega.ecl", eclgen.File(1, 300), core.Options{})
	sum := sha256.Sum256([]byte(strings.Join(mega, "\n")))
	lines = append(lines, fmt.Sprintf("eclgen.File(1,300) modules=%d sha256=%s", len(mega), hex.EncodeToString(sum[:])))
	checkGolden(t, keysGolden, lines)
}

// designKeyLines renders the root keys of every module of a source, one
// line each: eclc's default emit set for the module by name, and the Go
// target under a package name for the last-module convention.
func designKeyLines(t *testing.T, path, src string, opts core.Options) []string {
	t.Helper()
	prog, err := core.Parse(path, src, opts)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	parseKey := KeyParse(path, src, opts)
	var out []string
	for _, m := range prog.Modules() {
		out = append(out, fmt.Sprintf("%s %s design=%s design-last/go=%s", path, m,
			KeyDesign(parseKey, m, opts, []Phase{PhaseEmitEsterel, PhaseEmitC, PhaseEmitGlue, PhaseEmitStats}, ""),
			KeyDesign(parseKey, "", opts, []Phase{PhaseEmitGo}, "genpkg")))
	}
	return out
}

// TestDesignKeysGolden pins the root key over keyCorpus the way
// TestKeysGolden pins the phase keys: a change to it turns every stored
// root entry cold.
func TestDesignKeysGolden(t *testing.T) {
	var lines []string
	for _, f := range keyCorpus(t) {
		lines = append(lines, designKeyLines(t, f.path, f.src, f.opts)...)
	}
	mega := designKeyLines(t, "mega.ecl", eclgen.File(1, 300), core.Options{})
	sum := sha256.Sum256([]byte(strings.Join(mega, "\n")))
	lines = append(lines, fmt.Sprintf("eclgen.File(1,300) modules=%d sha256=%s", len(mega), hex.EncodeToString(sum[:])))
	checkGolden(t, designKeysGolden, lines)
}

// checkGolden compares lines against a golden file (or, with -update,
// rewrites it), reporting the first line that differs.
func checkGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gotLines), len(wantLines))
}
