package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// buildEclc compiles the eclc binary once per test run.
func buildEclc(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping binary end-to-end test")
	}
	exe := filepath.Join(t.TempDir(), "eclc")
	out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput()
	if err != nil {
		t.Skipf("go build unavailable: %v\n%s", err, out)
	}
	return exe
}

// TestWarmProcessRebuildHitRate is the acceptance criterion against
// the real binary: two separate eclc processes over one cache dir; the
// second must report >= 90% disk-cache hits.
func TestWarmProcessRebuildHitRate(t *testing.T) {
	exe := buildEclc(t)
	cacheDir := t.TempDir()
	outDir := t.TempDir()
	examples, err := filepath.Abs("../../examples")
	if err != nil {
		t.Fatal(err)
	}

	run := func() string {
		cmd := exec.Command(exe, "-all", "-cache-stats", "-cache-dir", cacheDir, "-o", outDir, examples)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("eclc failed: %v\n%s", err, out)
		}
		return string(out)
	}

	cold := run()
	if !strings.Contains(cold, "disk-hits=0") {
		t.Fatalf("cold run not cold:\n%s", cold)
	}
	warm := run()
	m := regexp.MustCompile(`disk-hit-rate=([0-9.]+)%`).FindStringSubmatch(warm)
	if m == nil {
		t.Fatalf("no disk-hit-rate in output:\n%s", warm)
	}
	rate, err := strconv.ParseFloat(m[1], 64)
	if err != nil || rate < 90 {
		t.Fatalf("warm disk-hit-rate = %s%% (want >= 90):\n%s", m[1], warm)
	}
	// Artifacts must exist and be identical across cold/warm runs
	// (the warm run rewrites them from cached bytes).
	if _, err := os.Stat(filepath.Join(outDir, "abro.strl")); err != nil {
		t.Fatalf("warm run artifact missing: %v", err)
	}
}

// TestCacheSubcommands drives stats -> gc -> clear over a real store.
func TestCacheSubcommands(t *testing.T) {
	exe := buildEclc(t)
	cacheDir := t.TempDir()
	outDir := t.TempDir()
	examples, _ := filepath.Abs("../../examples")
	if out, err := exec.Command(exe, "-all", "-cache-dir", cacheDir, "-o", outDir, examples).CombinedOutput(); err != nil {
		t.Fatalf("seed build: %v\n%s", err, out)
	}

	out, err := exec.Command(exe, "cache", "stats", "-cache-dir", cacheDir).CombinedOutput()
	if err != nil || !regexp.MustCompile(`entries:\s+[1-9]`).Match(out) {
		t.Fatalf("cache stats (want a populated store): %v\n%s", err, out)
	}
	out, err = exec.Command(exe, "cache", "gc", "-cache-dir", cacheDir, "-max-bytes", "1G").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "gc: evicted") {
		t.Fatalf("cache gc: %v\n%s", err, out)
	}
	out, err = exec.Command(exe, "cache", "clear", "-cache-dir", cacheDir).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "cleared") {
		t.Fatalf("cache clear: %v\n%s", err, out)
	}
	out, err = exec.Command(exe, "cache", "stats", "-cache-dir", cacheDir).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "entries:   0") {
		t.Fatalf("stats after clear: %v\n%s", err, out)
	}
	if out, err := exec.Command(exe, "cache", "bogus").CombinedOutput(); err == nil {
		t.Fatalf("unknown subcommand succeeded:\n%s", out)
	}
}

// incrementalExample returns the incremental fixture with the given
// data-loop increment (the only reactive-structure-preserving knob).
func incrementalExample(inc int) string {
	return fmt.Sprintf(`module incpipe (input pure a, input pure b, input int req,
                 output int done, output pure pulse)
{
    int acc;
    int n;
    acc = 0;
    par {
        while (1) {
            await (a);
            emit (pulse);
        }
        while (1) {
            await (b);
            emit (pulse);
        }
        while (1) {
            await (req);
            n = 0;
            while (n < 6) {
                acc = acc + %d;
                n = n + 1;
            }
            emit_v (done, acc);
        }
    }
}
`, inc)
}

// TestExplainReportsPhaseTable drives the -explain flag end to end:
// a cold build rebuilds every phase, a data-function edit in a new
// process replays the efsm phase from disk while re-running emission,
// an unchanged rebuild collapses to the root entry's design phase, and
// `eclc cache stats` lists the store per phase.
func TestExplainReportsPhaseTable(t *testing.T) {
	exe := buildEclc(t)
	cacheDir, outDir, srcDir := t.TempDir(), t.TempDir(), t.TempDir()
	src := filepath.Join(srcDir, "inc.ecl")

	run := func(args ...string) string {
		cmd := exec.Command(exe, append([]string{"-explain", "-cache-dir", cacheDir, "-o", outDir}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("eclc failed: %v\n%s", err, out)
		}
		return string(out)
	}

	if err := os.WriteFile(src, []byte(incrementalExample(2)), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := run(src)
	if !strings.Contains(cold, "phase=efsm status=rebuilt") {
		t.Fatalf("cold explain lacks efsm rebuild:\n%s", cold)
	}

	// Data-function edit, new process: efsm replays, emission reruns.
	if err := os.WriteFile(src, []byte(incrementalExample(9)), 0o644); err != nil {
		t.Fatal(err)
	}
	edited := run(src)
	if !strings.Contains(edited, "phase=efsm status=disk-hit") {
		t.Fatalf("edited explain lacks efsm disk-hit:\n%s", edited)
	}
	if !strings.Contains(edited, "phase=emit-c status=rebuilt") {
		t.Fatalf("edited explain lacks emit-c rebuild:\n%s", edited)
	}
	if !strings.Contains(edited, "phase-stats phase=efsm mem-hits=0 disk-hits=1 remote-hits=0 shared=0 rebuilds=0 failures=0") {
		t.Fatalf("edited explain lacks phase-stats summary:\n%s", edited)
	}

	// Unchanged rebuild, new process: one root disk hit.
	unchanged := run(src)
	if !strings.Contains(unchanged, "phase=design status=disk-hit") {
		t.Fatalf("unchanged explain lacks design disk-hit:\n%s", unchanged)
	}

	// The store-level per-phase table.
	out, err := exec.Command(exe, "cache", "stats", "-cache-dir", cacheDir).CombinedOutput()
	if err != nil {
		t.Fatalf("cache stats: %v\n%s", err, out)
	}
	for _, want := range []string{"phase=efsm entries=", "phase=emit-c entries=", "phase=design entries=2 "} {
		if !strings.Contains(string(out), want) {
			t.Errorf("cache stats lacks %q:\n%s", want, out)
		}
	}
}

// TestBatchMalformedFileDiagnostics mixes a malformed file into a
// batch directory: eclc must fail, name the offending file with a
// parse-phase diagnostic, and still compile the good file.
func TestBatchMalformedFileDiagnostics(t *testing.T) {
	exe := buildEclc(t)
	srcDir, outDir := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(srcDir, "good.ecl"), []byte(incrementalExample(2)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(srcDir, "bad.ecl"), []byte("module broken ( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-all", "-no-disk-cache", "-o", outDir, srcDir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("batch with malformed file succeeded:\n%s", out)
	}
	text := string(out)
	if !strings.Contains(text, "bad.ecl:1:") || !strings.Contains(text, "[parse]") {
		t.Fatalf("stderr lacks structured bad.ecl parse diagnostic:\n%s", text)
	}
	if _, err := os.Stat(filepath.Join(outDir, "incpipe.c")); err != nil {
		t.Errorf("good file not compiled despite per-file failure: %v", err)
	}
}

// TestVetPrintsFileFindingsOnce runs `eclc -all -vet` over files whose
// design-level findings every module carries: each finding is printed
// once, under the module the analyzer anchored it to.
func TestVetPrintsFileFindingsOnce(t *testing.T) {
	exe := buildEclc(t)
	srcDir, outDir := t.TempDir(), t.TempDir()
	seeds := filepath.Join("..", "..", "internal", "analyze", "testdata", "vet")
	var want []string
	for _, name := range []string{"ecl040_undriven_signal", "ecl041_unobserved_signal"} {
		src, err := os.ReadFile(filepath.Join(seeds, name+".ecl"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(srcDir, name+".ecl"), src, 0o644); err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join(seeds, name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, "eclc: vet: "+filepath.Join(srcDir, strings.TrimSpace(string(golden))))
	}
	out, _ := exec.Command(exe, "-all", "-vet", "-no-disk-cache", "-o", outDir, srcDir).CombinedOutput()
	lines := strings.Split(string(out), "\n")
	for _, w := range want {
		n := 0
		for _, l := range lines {
			if l == w {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%q printed %d times, want once:\n%s", w, n, out)
		}
	}
}
