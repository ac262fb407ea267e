package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/paperex"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/sem"
	"repro/internal/sim"
	"repro/internal/source"
)

// table1Reference holds the four rows' simulated numbers at the
// paper's configuration. The cost model is not validated against the
// paper's hardware, so the reference pins this implementation's
// numbers; it states no error against the paper.
//
//go:embed table1_reference.json
var table1Reference []byte

// table1Ref is the reference file's shape.
type table1Ref struct {
	Note   string          `json:"note"`
	Config json.RawMessage `json:"config"`
	Rows   []sim.Table1Row `json:"rows"`
}

func loadTable1Ref() (*table1Ref, error) {
	var ref table1Ref
	if err := json.Unmarshal(table1Reference, &ref); err != nil {
		return nil, fmt.Errorf("table1 reference: %w", err)
	}
	if len(ref.Rows) != len(table1Rows) {
		return nil, fmt.Errorf("table1 reference: %d rows, want %d", len(ref.Rows), len(table1Rows))
	}
	return &ref, nil
}

// checkTable1 holds a pass's rows to the reference and to the three
// paper shapes sim's small-run test asserts.
func checkTable1(rows, ref []sim.Table1Row) error {
	if len(rows) != len(ref) {
		return fmt.Errorf("%d rows, want %d", len(rows), len(ref))
	}
	for i := range rows {
		if rows[i] != ref[i] {
			return fmt.Errorf("row %s/%s: got %+v, reference %+v", ref[i].Example, ref[i].Partition, rows[i], ref[i])
		}
	}
	by := map[string]sim.Table1Row{}
	for _, r := range rows {
		by[r.Example+"/"+r.Partition] = r
	}
	switch {
	case by["Stack/3 tasks"].Total() <= by["Stack/1 task"].Total():
		return fmt.Errorf("stack: 3-task memory does not exceed 1-task memory")
	case by["Buffer/1 task"].TaskCode <= by["Buffer/3 tasks"].TaskCode:
		return fmt.Errorf("buffer: 1-task code does not exceed 3-task code")
	case by["Stack/3 tasks"].RTOSKCycles <= by["Stack/1 task"].RTOSKCycles,
		by["Buffer/3 tasks"].RTOSKCycles <= by["Buffer/1 task"].RTOSKCycles:
		return fmt.Errorf("RTOS cycles do not grow with the task count")
	}
	return nil
}

// table1Work is an op's work: simulated kcycles, task plus RTOS.
func table1Work(rows []sim.Table1Row) float64 {
	total := 0.0
	for _, r := range rows {
		total += r.TotalKCycles()
	}
	return total
}

// table1 runs sim.Table1 at the paper's configuration.
type table1 struct {
	cfg  config
	ref  *table1Ref
	rows []sim.Table1Row
}

// setupReps: set-up is one warm-up pass (the op itself needs no
// inputs), timed three times.
func (w *table1) setupReps() int { return 3 }

func (w *table1) setup() error {
	var err error
	if w.ref, err = loadTable1Ref(); err != nil {
		return err
	}
	rows, err := sim.Table1(sim.DefaultTable1Config())
	if err != nil {
		return err
	}
	return checkTable1(rows, w.ref.Rows)
}

func (w *table1) teardown() {}

func (w *table1) measure(deadline time.Time, m *meter) error {
	return runSeq(deadline, m, seqOps{
		op: func(int) (float64, error) {
			var err error
			w.rows, err = sim.Table1(sim.DefaultTable1Config())
			return table1Work(w.rows), err
		},
		verify: func(int) error { return checkTable1(w.rows, w.ref.Rows) },
	})
}

func (w *table1) check(*meter) {}

// traced re-enacts sim.Table1 row by row: the front end of each paper
// example, then each partition's build and run.
func (w *table1) traced(deadline time.Time, rec *recorder, m *meter) (layerMetrics, error) {
	lm := layerMetrics{}
	var overhead []float64
	var mem memDelta
	cycles := 0
	for ; cycles == 0 || time.Now().Before(deadline); cycles++ {
		before := readMem()
		rows, err := sim.Table1(sim.DefaultTable1Config())
		if cycles == 0 {
			mem = diffMem(before, readMem())
		}
		m.attempted++
		if err == nil {
			err = checkTable1(rows, w.ref.Rows)
		}
		if err != nil {
			m.fail("cycle %d: %v", cycles, err)
			return lm, nil
		}
		t0 := time.Now()
		if _, err := reenactTable1(nil, 0, nil); err != nil {
			return nil, err
		}
		plainMS := msSince(t0)
		t0 = time.Now()
		rowsT, err := reenactTable1(rec, int64(cycles+1), lm)
		if err != nil {
			return nil, err
		}
		overhead = append(overhead, (msSince(t0)-plainMS)/plainMS*100)
		if err := checkTable1(rowsT, w.ref.Rows); err != nil {
			m.fail("cycle %d: re-enactment: %v", cycles, err)
		}
	}
	putLayerTimes(lm, rec.snapshot(), float64(cycles))
	for _, row := range table1Rows {
		lm["sim.build_ms."+row] /= float64(cycles)
		lm["sim.run_ms."+row] /= float64(cycles)
	}
	mem.put(lm, 1)
	lm["trace.overhead_pct"] = median(overhead)
	return lm, nil
}

// reenactTable1 is sim.Table1 taken apart: AnalyzeSource's front end,
// then BuildSync or BuildAsync and RunStack or RunBuffer per row, each
// in a span. With lm non-nil it adds each row's build and run time and
// records its simulated statistics.
func reenactTable1(rec *recorder, trace int64, lm layerMetrics) ([]sim.Table1Row, error) {
	root := rec.begin(trace, 0, "op")
	defer root.end()
	cfg := sim.DefaultTable1Config()
	simCfg := sim.Config{Policy: cfg.Policy, Model: cfg.Model}
	var rows []sim.Table1Row
	examples := []struct{ name, file, src, top string }{
		{"Stack", "stack.ecl", paperex.Stack, "toplevel"},
		{"Buffer", "buffer.ecl", paperex.Buffer, "bufferctl"},
	}
	for e, ex := range examples {
		var diags source.DiagList
		sp := rec.begin(trace, root.id, "parser")
		f := parser.ParseFile(pp.New(&diags, nil).Expand(source.NewFile(ex.file, ex.src)), &diags)
		sp.end()
		sp = rec.begin(trace, root.id, "sem")
		info := sem.Analyze(f, &diags)
		sp.end()
		if diags.HasErrors() {
			return nil, diags.Err()
		}
		for p, partition := range []string{"1 task", "3 tasks"} {
			row := table1Rows[2*e+p]
			t0 := time.Now()
			sp := rec.begin(trace, root.id, "sim.build")
			var sys sim.System
			var err error
			if p == 0 {
				sys, err = sim.BuildSync(info, ex.top, simCfg)
			} else {
				sys, err = sim.BuildAsync(info, ex.top, simCfg)
			}
			sp.end()
			build := msSince(t0)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", ex.name, partition, err)
			}
			t0 = time.Now()
			sp = rec.begin(trace, root.id, "sim.run")
			if e == 0 {
				_, err = sim.RunStack(sys, cfg.Packets)
			} else {
				_, err = sim.RunBuffer(sys, cfg.Messages, cfg.SamplesPerMessage)
			}
			sp.end()
			run := msSince(t0)
			if err != nil {
				return nil, fmt.Errorf("%s %s run: %w", ex.name, partition, err)
			}
			mt := sys.Metrics()
			r := sim.Table1Row{
				Example: ex.name, Partition: partition,
				TaskCode: mt.TaskImage.CodeBytes, TaskData: mt.TaskImage.DataBytes,
				RTOSCode: mt.RTOSImage.CodeBytes, RTOSData: mt.RTOSImage.DataBytes,
				TaskKCycles: float64(mt.TaskCycles) / 1000, RTOSKCycles: float64(mt.KernelCycles) / 1000,
				States: mt.States,
			}
			rows = append(rows, r)
			if lm != nil {
				lm["sim.build_ms."+row] += build
				lm["sim.run_ms."+row] += run
				lm["sim.task_kcycles."+row] = r.TaskKCycles
				lm["rtos.kcycles."+row] = r.RTOSKCycles
				lm["sim.states."+row] = float64(r.States)
				lm["sim.image_bytes."+row] = float64(r.Total())
			}
		}
	}
	return rows, nil
}
