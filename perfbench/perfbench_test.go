package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/eclgen"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite table1_reference.json from sim.Table1")

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{250, 0.9, true, 225},
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{3, 0.5, false, 0},
		{0, 0.9, false, 0},
	} {
		got, ok := percentile(xs(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %t; want %g, %t", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // runs past the parent
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
		{ID: 6, Name: "op", Start: 200, End: 210}, // a second root, no children
	}
	want := []int64{100 - (40 + 10), 20 - 6, 30, 40, 6, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	tot := layerTotals(spans)
	if tot["op"].selfNS != 60 || tot["op"].calls != 2 {
		t.Errorf("op total = %+v, want self 60 over 2 calls", tot["op"])
	}
	lm := layerMetrics{}
	putLayerTimes(lm, []span{{ID: 1, Name: "op", Start: 0, End: 3e6}, {ID: 2, Parent: 1, Name: "sem", Start: 0, End: 2e6}}, 2)
	if lm["sem.ms"] != 1 || lm["trace.unattributed_ms"] != 0.5 {
		t.Errorf("layer times = %v, want sem.ms 1 and trace.unattributed_ms 0.5 per op", lm)
	}
}

// TestEditReplaysEFSM builds small generated designs, applies seeded
// edits and rebuilds: every edit must touch one data loop of one
// module, compile, replay every efsm phase, and re-render exactly that
// module's artifacts.
func TestEditReplaysEFSM(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		dir := t.TempDir()
		src := eclgen.File(seed, 40)
		path := filepath.Join(dir, "mega.ecl")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		base := filepath.Join(dir, "base")
		cold, err := eclcAll(path, base, 2, false)
		if err == nil {
			err = firstFailure(cold)
		}
		if err != nil {
			t.Fatalf("seed %d: cold build: %v", seed, err)
		}
		baseArts := artifactDigests(cold.results)
		n := int64(len(cold.results))
		files, err := listFiles(base)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			e, err := pickEdit(src, seed, i)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			edited := e.apply(src)
			if len(edited) != len(src) || edited == src || e.Old == e.New {
				t.Fatalf("seed %d: %s is not a same-width change", seed, e)
			}
			if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
				t.Fatal(err)
			}
			w := &editRebuild{cfg: config{dir: dir}, store: base, files: files}
			if err := w.restore(); err != nil {
				t.Fatal(err)
			}
			out, err := eclcAll(path, base, 2, false)
			if err == nil {
				err = firstFailure(out)
			}
			if err != nil {
				t.Fatalf("seed %d %s: rebuild: %v", seed, e, err)
			}
			if c := out.cache.Phases[pipeline.PhaseEFSM]; c.DiskHits != n || c.Rebuilds != 0 {
				t.Errorf("seed %d %s: efsm %d replays, %d rebuilds; want %d, 0", seed, e, c.DiskHits, c.Rebuilds, n)
			}
			if c := out.cache.Phases[pipeline.PhaseEmitC]; c.Rebuilds != 1 {
				t.Errorf("seed %d %s: emit-c rebuilt %d modules, want 1", seed, e, c.Rebuilds)
			}
			for mod, d := range artifactDigests(out.results) {
				if changed := d != baseArts[mod]; changed != (mod == e.Module) {
					t.Errorf("seed %d %s: module %s changed=%t", seed, e, mod, changed)
				}
			}
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTable1Reference pins table1_reference.json to sim.Table1 at the
// paper's configuration (-update rewrites it).
func TestTable1Reference(t *testing.T) {
	rows, err := sim.Table1(sim.DefaultTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		cfg, _ := json.Marshal(sim.DefaultTable1Config())
		ref := table1Ref{
			Note: "Simulated Table 1 rows (memory in bytes, execution in kcycles) at the paper's configuration. " +
				"The cost model is not validated against the paper's hardware, so this file pins the model's own numbers and gives no error figure against the paper.",
			Config: cfg,
			Rows:   rows,
		}
		data, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("table1_reference.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	ref, err := loadTable1Ref()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTable1(rows, ref.Rows); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and
// per-layer metrics in step with the program.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, pl := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != pl.name || got.Unit != pl.unit || got.Better != pl.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, pl)
		}
	}
	want := map[string]string{"setup_s": "s", "latency_ms": "ms", "work_per_s": "1/s", "peak_heap_mb": "MB"}
	if len(bj.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(bj.EndToEnd), len(want))
	}
	for _, e := range bj.EndToEnd {
		if want[e.Name] != e.Unit {
			t.Errorf("end_to_end %s in %s, program prints %q", e.Name, e.Unit, want[e.Name])
		}
	}
}
