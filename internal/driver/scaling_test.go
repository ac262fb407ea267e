package driver

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/eclgen"
)

// batchAllocPerModule builds every module of a generated design the
// way `eclc -all -vet -no-disk-cache -jobs 1` does (eclc's default
// targets, analysis on, memory-only caching, one worker) and returns
// the bytes allocated per module.
func batchAllocPerModule(t *testing.T, modules int) float64 {
	t.Helper()
	src := eclgen.File(1, modules)
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
// (hashing the whole source, walking every module body): that makes a
// batch quadratic in the module count, so the bytes allocated per
// module grow with the file. They must stay nearly flat from 100 to
// 800 modules.
func TestBatchAllocLinearInModules(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the 900-module batch builds")
	}
	small := batchAllocPerModule(t, 100)
	large := batchAllocPerModule(t, 800)
	t.Logf("allocated per module: %.0f KB at 100 modules, %.0f KB at 800 (%.2fx)", small/1024, large/1024, large/small)
	if large > 1.5*small {
		t.Errorf("allocated %.0f KB per module at 800 modules, %.2fx the %.0f KB at 100 (want at most 1.5x)",
			large/1024, large/small, small/1024)
	}
}
