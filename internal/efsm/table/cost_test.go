package table_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cval"
	"repro/internal/efsm"
	"repro/internal/efsm/table"
	"repro/internal/kernel"
)

// costInstant draws one instant's inputs in machine input order: each
// input present with probability 2/5, valued inputs carrying a value in
// [0,256).
func costInstant(rng *rand.Rand, ins []*kernel.Signal) ([]bool, []cval.Value) {
	present := make([]bool, len(ins))
	vals := make([]cval.Value, len(ins))
	for i, sig := range ins {
		if rng.Intn(5) >= 2 {
			continue
		}
		present[i] = true
		if !sig.Pure && sig.Type != nil {
			vals[i] = cval.FromInt(sig.Type, int64(rng.Intn(256)))
		}
	}
	return present, vals
}

// costRun steps a table machine compiled from m through 40 seeded
// instants and renders each reaction's cost as "units/depth" ("err"
// for a failed reaction, which ends the run, as termination does).
func costRun(t *testing.T, m *efsm.Machine, seed int64) string {
	t.Helper()
	prog, err := table.Compile(m)
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	tm := table.New(prog)
	nIn := prog.NumInputs()
	present := make([]bool, nIn+prog.NumOutputs())
	out := make([]cval.Value, prog.NumOutputs())
	rng := rand.New(rand.NewSource(seed))
	var parts []string
	for i := 0; i < 40; i++ {
		in, vals := costInstant(rng, m.Inputs)
		copy(present, in)
		done, err := tm.Step(present, vals, out)
		if err != nil {
			parts = append(parts, "err")
			break
		}
		units, depth := tm.Cost()
		parts = append(parts, fmt.Sprintf("%d/%d", units, depth))
		if done {
			break
		}
	}
	return strings.Join(parts, " ")
}

// TestCostGolden pins the cost accounting Table 1 is priced with. For
// every module of examples/*.ecl (the paper examples), the eclgen
// corpus, and testdata/charges.ecl (one reachable use of every priced
// construct), on the compiled and the minimized machine, each
// reaction's work units and decision-tree depth must equal
// testdata/costs.json. That file was recorded from the tree-walking
// EFSM runtime the table VM replaced, so the simulated cycle counts
// carry over unchanged.
func TestCostGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/costs.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	type source struct{ label, path string }
	var sources []source
	for _, dir := range []struct{ path, label string }{
		{"../../../examples", "examples"},
		{"../../eclgen/testdata/corpus", "corpus"},
	} {
		files, err := filepath.Glob(filepath.Join(dir.path, "*.ecl"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources under %s (%v)", dir.path, err)
		}
		sort.Strings(files)
		for _, f := range files {
			sources = append(sources, source{dir.label + "/" + filepath.Base(f), f})
		}
	}
	sources = append(sources, source{"charges.ecl", "testdata/charges.ecl"})

	seen := 0
	for _, s := range sources {
		src, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.Parse(s.label, string(src), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mod := range prog.Modules() {
			d, err := prog.Compile(mod)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.label, mod, err)
			}
			min, _ := efsm.Minimize(d.Machine)
			for _, k := range []struct {
				kind string
				m    *efsm.Machine
			}{{"full", d.Machine}, {"min", min}} {
				for seed := int64(1); seed <= 2; seed++ {
					key := fmt.Sprintf("%s/%s/%s/%d", s.label, mod, k.kind, seed)
					seen++
					w, ok := want[key]
					if !ok {
						t.Errorf("%s: not in costs.json", key)
						continue
					}
					if got := costRun(t, k.m, seed); got != w {
						t.Errorf("%s:\n got  %s\n want %s", key, got, w)
					}
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("checked %d runs, costs.json holds %d", seen, len(want))
	}
}
