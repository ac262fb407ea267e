package driver

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/eclgen"
)

// batchAllocPerModule builds every module of a generated design the
// way `eclc -all -vet -no-disk-cache -jobs 1` does (eclc's default
// targets, analysis on, memory-only caching, one worker) and returns
// the bytes allocated per module. With env set, the file also declares
// an environment that grows with it: one four-member enum and one
// two-field struct per module, ahead of the generated modules.
func batchAllocPerModule(t *testing.T, modules int, env bool) float64 {
	t.Helper()
	var b strings.Builder
	if env {
		for i := 0; i < modules; i++ {
			fmt.Fprintf(&b, "enum mode%d { M%d_IDLE, M%d_RUN, M%d_WAIT, M%d_DONE };\n", i, i, i, i, i)
			fmt.Fprintf(&b, "struct pair%d { int lo; int hi; };\n", i)
		}
	}
	b.WriteString(eclgen.File(1, modules))
	src := b.String()
	d := New(1)
	targets := []Target{TargetEsterel, TargetC, TargetGlue, TargetStats}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reqs, err := d.ExpandModules(Request{Path: "mega.ecl", Source: src, Targets: targets, Analyze: true})
	if err != nil {
		t.Fatalf("%d modules: expand: %v", modules, err)
	}
	if _, err := d.Build(context.Background(), reqs); err != nil {
		t.Fatalf("%d modules: build: %v", modules, err)
	}
	runtime.ReadMemStats(&after)
	if len(reqs) != modules {
		t.Fatalf("expanded %d modules, want %d", len(reqs), modules)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(modules)
}

// TestBatchAllocLinearInModules guards the batch path against work
// that depends only on the file but is redone for each of its modules
// (hashing the whole source, walking every module body, fingerprinting
// the file's environment): that makes a batch quadratic in the module
// count, so the bytes allocated per module grow with the file. They
// must stay nearly flat from 100 to 800 modules, with and without an
// environment that grows with the file.
func TestBatchAllocLinearInModules(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the 900-module batch builds")
	}
	for _, env := range []bool{false, true} {
		small := batchAllocPerModule(t, 100, env)
		large := batchAllocPerModule(t, 800, env)
		t.Logf("env=%t: allocated per module: %.0f KB at 100 modules, %.0f KB at 800 (%.2fx)", env, small/1024, large/1024, large/small)
		if large > 1.5*small {
			t.Errorf("env=%t: allocated %.0f KB per module at 800 modules, %.2fx the %.0f KB at 100 (want at most 1.5x)",
				env, large/1024, large/small, small/1024)
		}
	}
}
