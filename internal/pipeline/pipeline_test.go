package pipeline

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/paperex"
)

func statusOf(t *testing.T, res *Result, ph Phase) Status {
	t.Helper()
	for _, pr := range res.Phases {
		if pr.Phase == ph {
			return pr.Status
		}
	}
	t.Fatalf("phase %s not walked (phases: %+v)", ph, res.Phases)
	return ""
}

// TestRunnerFirstDirtyPhaseResume is the incremental contract at the
// Runner level: a second "process" (fresh Runner, shared store) over a
// data-edited source re-runs the front end and emission but replays
// the efsm phase from disk.
func TestRunnerFirstDirtyPhaseResume(t *testing.T) {
	dir := t.TempDir()
	open := func() *Runner {
		store, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewRunner(store)
	}
	emits := []Phase{PhaseEmitC, PhaseEmitEsterel, PhaseEmitStats}

	cold := open().Run(Request{Path: "inc.ecl", Source: dataEditSource(3), Emits: emits})
	if cold.Err != nil {
		t.Fatalf("cold: %v", cold.Err)
	}
	for _, ph := range []Phase{PhaseParse, PhaseLower, PhaseEFSM, PhaseEmitC} {
		if st := statusOf(t, cold, ph); st != StatusRebuilt {
			t.Errorf("cold %s = %s, want rebuilt", ph, st)
		}
	}

	// Unchanged source, new process: the root entry serves the request
	// whole, and the same module requested by name (another root key)
	// walks, replaying efsm and every emission from disk.
	whole := open().Run(Request{Path: "inc.ecl", Source: dataEditSource(3), Emits: emits})
	if whole.Err != nil || whole.Root != StatusDiskHit || len(whole.Phases) != 1 || whole.Module != "incworker" {
		t.Fatalf("unchanged rebuild = (%v, root %s, module %q, phases %+v), want one design disk hit",
			whole.Err, whole.Root, whole.Module, whole.Phases)
	}
	if !maps.Equal(whole.Artifacts, cold.Artifacts) || whole.Stats == nil || *whole.Stats != *cold.Stats {
		t.Error("root entry's artifacts or stats differ from the cold build's")
	}
	warm := open().Run(Request{Path: "inc.ecl", Source: dataEditSource(3), Module: "incworker", Emits: emits})
	if warm.Err != nil {
		t.Fatalf("warm: %v", warm.Err)
	}
	for _, ph := range []Phase{PhaseEFSM, PhaseEmitC, PhaseEmitEsterel, PhaseEmitStats} {
		if st := statusOf(t, warm, ph); st != StatusDiskHit {
			t.Errorf("warm %s = %s, want disk-hit", ph, st)
		}
	}
	if warm.Stats == nil || warm.Stats.EFSM.States != cold.Stats.EFSM.States {
		t.Errorf("warm stats = %+v, want %+v", warm.Stats, cold.Stats)
	}

	// Data-edited source, new process: front end and emission rebuild,
	// efsm replays.
	edited := open()
	res := edited.Run(Request{Path: "inc.ecl", Source: dataEditSource(5), Emits: emits})
	if res.Err != nil {
		t.Fatalf("edited: %v", res.Err)
	}
	if st := statusOf(t, res, PhaseEFSM); st != StatusDiskHit {
		t.Errorf("edited efsm = %s, want disk-hit (the whole point)", st)
	}
	for _, ph := range []Phase{PhaseParse, PhaseSem, PhaseLower, PhaseEmitC, PhaseEmitStats} {
		if st := statusOf(t, res, ph); st != StatusRebuilt {
			t.Errorf("edited %s = %s, want rebuilt", ph, st)
		}
	}

	// The replayed-machine build must be byte-identical to a cold
	// compile of the edited source.
	pure := (&Runner{NoCache: true}).Run(Request{Path: "inc.ecl", Source: dataEditSource(5), Emits: emits})
	if pure.Err != nil {
		t.Fatal(pure.Err)
	}
	for _, ph := range emits {
		if res.Artifacts[ph] != pure.Artifacts[ph] {
			t.Errorf("%s artifact from replayed machine differs from cold compile", ph)
		}
	}
	if got := edited.Stats()[PhaseEFSM]; got.DiskHits != 1 || got.Rebuilds != 0 {
		t.Errorf("edited runner efsm stats = %+v, want 1 disk hit, 0 rebuilds", got)
	}
}

// TestRunnerMinimizePhase: with Minimize set the efsm-min phase gets
// its own key and snapshot, chained from efsm; a store warmed without
// minimization still serves the efsm phase.
func TestRunnerMinimizePhase(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store)
	plain := r.Run(Request{Path: "abro.ecl", Source: paperex.ABRO, Emits: []Phase{PhaseEmitC}})
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}

	store2, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(store2)
	min := r2.Run(Request{Path: "abro.ecl", Source: paperex.ABRO,
		Opts: core.Options{Minimize: true}, Emits: []Phase{PhaseEmitC}})
	if min.Err != nil {
		t.Fatal(min.Err)
	}
	if st := statusOf(t, min, PhaseEFSM); st != StatusDiskHit {
		t.Errorf("efsm = %s, want disk-hit from the unminimized build", st)
	}
	if st := statusOf(t, min, PhaseEFSMMin); st != StatusRebuilt {
		t.Errorf("efsm-min = %s, want rebuilt", st)
	}
	if st := statusOf(t, min, PhaseEmitC); st != StatusRebuilt {
		t.Errorf("emit-c = %s, want rebuilt (different machine key)", st)
	}
	if min.Artifacts[PhaseEmitC] == plain.Artifacts[PhaseEmitC] {
		// Minimization may be a no-op for some designs, but abro's
		// machine does minimize; if this fires the phase plumbing
		// probably reused the wrong machine.
		t.Log("warning: minimized artifact identical to unminimized")
	}
}

// TestRunnerEmitFailureIsPerPhase: a failing back end (hardware over a
// design with a data part) reports per-phase, without failing the
// machine phases or the other emissions.
func TestRunnerEmitFailureIsPerPhase(t *testing.T) {
	r := &Runner{}
	res := r.Run(Request{Path: "stack.ecl", Source: paperex.Stack, Module: "toplevel",
		Emits: []Phase{PhaseEmitVerilog, PhaseEmitC}})
	if res.Err != nil {
		t.Fatalf("pipeline failed outright: %v", res.Err)
	}
	if res.EmitErrs[PhaseEmitVerilog] == nil {
		t.Error("verilog emission over a data design did not fail")
	}
	if res.Artifacts[PhaseEmitC] == "" {
		t.Error("C emission missing despite verilog failure")
	}
	if st := statusOf(t, res, PhaseEmitVerilog); st != StatusFailed {
		t.Errorf("emit-verilog = %s, want failed", st)
	}
}

// TestRunnerNoCache: NoCache reports rebuilt everywhere and touches no
// tier.
func TestRunnerNoCache(t *testing.T) {
	r := &Runner{NoCache: true}
	for i := 0; i < 2; i++ {
		res := r.Run(Request{Path: "abro.ecl", Source: paperex.ABRO, Emits: []Phase{PhaseEmitC}})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if st := statusOf(t, res, PhaseEFSM); st != StatusRebuilt {
			t.Errorf("pass %d: efsm = %s, want rebuilt", i, st)
		}
	}
}

// TestRunnerCorruptSnapshotRebuilds: a truncated efsm blob degrades to
// a rebuild, not an error.
func TestRunnerCorruptSnapshotRebuilds(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	NewRunner(store).Run(Request{Path: "abro.ecl", Source: paperex.ABRO, Emits: []Phase{PhaseEmitC}})

	// Corrupt every v2 blob in place.
	store2, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	corruptV2Blobs(t, dir)
	res := NewRunner(store2).Run(Request{Path: "abro.ecl", Source: paperex.ABRO, Emits: []Phase{PhaseEmitC}})
	if res.Err != nil {
		t.Fatalf("corrupted store failed the build: %v", res.Err)
	}
	if st := statusOf(t, res, PhaseEFSM); st != StatusRebuilt {
		t.Errorf("efsm over corrupt store = %s, want rebuilt", st)
	}
}

// vetSource has exactly one finding: the ECL001 unused local signal.
const vetSource = `
module m (input pure i, output pure o)
{
    signal pure unused_sig;
    while (1) {
        await (i);
        emit (o);
    }
}
`

// TestRunnerAnalyzePhase: the analyze phase runs on request, snapshots
// its findings, and a fresh process replays them from disk without
// re-analysis — the warm `eclc -vet` contract.
func TestRunnerAnalyzePhase(t *testing.T) {
	dir := t.TempDir()
	open := func() *Runner {
		store, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewRunner(store)
	}

	cold := open().Run(Request{Path: "vet.ecl", Source: vetSource, Analyze: true})
	if cold.Err != nil {
		t.Fatalf("cold: %v", cold.Err)
	}
	if st := statusOf(t, cold, PhaseAnalyze); st != StatusRebuilt {
		t.Errorf("cold analyze = %s, want rebuilt", st)
	}
	if len(cold.Findings) != 1 || cold.Findings[0].Rule != "ECL001" {
		t.Fatalf("cold findings = %+v, want one ECL001", cold.Findings)
	}

	warm := open().Run(Request{Path: "vet.ecl", Source: vetSource, Analyze: true})
	if warm.Err != nil {
		t.Fatalf("warm: %v", warm.Err)
	}
	if st := statusOf(t, warm, PhaseAnalyze); st != StatusDiskHit {
		t.Errorf("warm analyze = %s, want disk-hit", st)
	}
	if len(warm.Findings) != 1 || warm.Findings[0] != cold.Findings[0] {
		t.Errorf("replayed findings %+v differ from fresh %+v", warm.Findings, cold.Findings)
	}

	// Same runner again: the snapshot serves from memory.
	r := open()
	r.Run(Request{Path: "vet.ecl", Source: vetSource, Analyze: true})
	mem := r.Run(Request{Path: "vet.ecl", Source: vetSource, Analyze: true})
	if st := statusOf(t, mem, PhaseAnalyze); st != StatusMemHit {
		t.Errorf("mem analyze = %s, want mem-hit", st)
	}

	// A clean design reports a non-nil empty list, and without Analyze
	// the phase is never walked.
	clean := open().Run(Request{Path: "abro.ecl", Source: paperex.ABRO, Analyze: true})
	if clean.Err != nil || clean.Findings == nil || len(clean.Findings) != 0 {
		t.Errorf("clean = (%v, %+v), want non-nil empty findings", clean.Err, clean.Findings)
	}
	off := open().Run(Request{Path: "abro.ecl", Source: paperex.ABRO})
	if off.Findings != nil {
		t.Errorf("findings without Analyze = %+v, want nil", off.Findings)
	}
	for _, pr := range off.Phases {
		if pr.Phase == PhaseAnalyze {
			t.Errorf("analyze phase walked without Analyze: %+v", pr)
		}
	}
}

// memTierRequest is the memory-tier tests' request: emits c, esterel
// and stats, with analysis on.
func memTierRequest(src string) Request {
	return Request{Path: "inc.ecl", Source: src, Analyze: true,
		Emits: []Phase{PhaseEmitC, PhaseEmitEsterel, PhaseEmitStats}}
}

// sameResult reports how got differs from want in artifacts, stats
// and findings ("" when it does not).
func sameResult(got, want *Result) string {
	switch {
	case got.Err != nil:
		return fmt.Sprintf("failed: %v", got.Err)
	case !maps.Equal(got.Artifacts, want.Artifacts):
		return "artifacts differ"
	case got.Stats == nil || *got.Stats != *want.Stats:
		return fmt.Sprintf("stats %+v, want %+v", got.Stats, want.Stats)
	case !slices.Equal(got.Findings, want.Findings):
		return fmt.Sprintf("findings %+v, want %+v", got.Findings, want.Findings)
	case !slices.Equal(got.FileFindings, want.FileFindings):
		return fmt.Sprintf("file findings %+v, want %+v", got.FileFindings, want.FileFindings)
	}
	return ""
}

// TestRunnerMemoryTierRebindsAcrossDataEdit: a store-less Runner keeps
// decoded machines in memory, and a data-only edit replays the machine
// from there rebound to the edited lowering, so the edited build
// renders the new data code exactly as a cold compile does.
func TestRunnerMemoryTierRebindsAcrossDataEdit(t *testing.T) {
	pure := (&Runner{NoCache: true}).Run(memTierRequest(dataEditSource(5)))
	if pure.Err != nil {
		t.Fatal(pure.Err)
	}
	r := &Runner{}
	if res := r.Run(memTierRequest(dataEditSource(3))); res.Err != nil {
		t.Fatal(res.Err)
	}
	res := r.Run(memTierRequest(dataEditSource(5)))
	if st := statusOf(t, res, PhaseEFSM); st != StatusMemHit {
		t.Errorf("edited efsm = %s, want mem-hit", st)
	}
	if st := statusOf(t, res, PhaseEmitC); st != StatusRebuilt {
		t.Errorf("edited emit-c = %s, want rebuilt (the data code changed)", st)
	}
	if diff := sameResult(res, pure); diff != "" {
		t.Errorf("edited build from the memory tier: %s", diff)
	}
	if res.Design.Machine.Mod != res.Design.Lowered.Module {
		t.Error("replayed machine not bound to the edited lowering")
	}

	// A repeat is served from memory throughout.
	again := r.Run(memTierRequest(dataEditSource(5)))
	for _, ph := range []Phase{PhaseEFSM, PhaseAnalyze, PhaseEmitC, PhaseEmitEsterel, PhaseEmitStats} {
		if st := statusOf(t, again, ph); st != StatusMemHit {
			t.Errorf("repeat %s = %s, want mem-hit", ph, st)
		}
	}
	if diff := sameResult(again, pure); diff != "" {
		t.Errorf("repeat from the memory tier: %s", diff)
	}
}

// TestRunnerRejectsInvalidUTF8Literal: two sources differing only in a
// raw byte of a guard's char literal once shared their structural
// fingerprint (JSON writes every byte that is not UTF-8 as U+FFFD),
// so one Runner served the first source's C for the second. Both are
// now rejected at the literal.
func TestRunnerRejectsInvalidUTF8Literal(t *testing.T) {
	r := &Runner{}
	for _, b := range []byte{0xaf, 0xfe} {
		src := "module g (input char I, output pure O) { while (1) { await (I); if (I == '" + string([]byte{b}) + "') { emit (O); } } }"
		res := r.Run(memTierRequest(src))
		if res.Err == nil {
			t.Fatalf("byte 0x%02x: compiled, want a diagnostic", b)
		}
		at := fmt.Sprintf("inc.ecl:1:%d:", strings.IndexByte(src, '\'')+1)
		want := fmt.Sprintf("not valid UTF-8; write the value as an integer constant such as 0x%02x", b)
		if msg := res.Err.Error(); !strings.Contains(msg, at) || !strings.Contains(msg, want) {
			t.Errorf("byte 0x%02x: error %q, want %q at %s", b, msg, want, at)
		}
		if len(res.Artifacts) != 0 {
			t.Errorf("byte 0x%02x: got artifacts %v", b, slices.Sorted(maps.Keys(res.Artifacts)))
		}
	}
}

// TestRunnerMemoryTierHandsOutCopies: the findings and stats a walk
// returns are the caller's own, whether built or served from memory;
// mutating them leaves the memory tier intact.
func TestRunnerMemoryTierHandsOutCopies(t *testing.T) {
	req := memTierRequest(vetSource)
	pure := (&Runner{NoCache: true}).Run(req)
	if pure.Err != nil || len(pure.Findings) == 0 || pure.Stats == nil {
		t.Fatalf("reference compile: %v, %d findings, stats %v", pure.Err, len(pure.Findings), pure.Stats)
	}
	r := &Runner{}
	for pass := 0; pass < 3; pass++ {
		res := r.Run(req)
		if diff := sameResult(res, pure); diff != "" {
			t.Fatalf("pass %d: %s", pass, diff)
		}
		if want := []Status{StatusRebuilt, StatusMemHit, StatusMemHit}[pass]; statusOf(t, res, PhaseAnalyze) != want {
			t.Errorf("pass %d: analyze = %s, want %s", pass, statusOf(t, res, PhaseAnalyze), want)
		}
		res.Stats.EFSM.States++
		for i := range res.Findings {
			res.Findings[i].Message = "clobbered"
		}
	}
}

// TestRunnerMemoryTierConcurrent runs both sources of a data edit from
// 8 goroutines on one store-less Runner: every result must equal a
// NoCache compile of its source, whichever walk built or rebound the
// shared machine. Run it under -race.
func TestRunnerMemoryTierConcurrent(t *testing.T) {
	var want [2]*Result
	for i, factor := range []int{3, 5} {
		want[i] = (&Runner{NoCache: true}).Run(memTierRequest(dataEditSource(factor)))
		if want[i].Err != nil {
			t.Fatal(want[i].Err)
		}
	}
	r := &Runner{}
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w + i) % 2
				if diff := sameResult(r.Run(memTierRequest(dataEditSource(3+2*k))), want[k]); diff != "" {
					t.Errorf("worker %d round %d (factor %d): %s", w, i, 3+2*k, diff)
				}
			}
		}(w)
	}
	wg.Wait()
	if c := r.Stats()[PhaseEFSM]; c.MemHits == 0 || c.Rebuilds == 0 {
		t.Errorf("efsm traffic %+v: want the machine built and then served from memory", c)
	}
}
