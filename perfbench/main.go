// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload of the ECL flow in process, checks the outputs,
// and prints its metrics as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload mega-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the ops run untraced and the end-to-end metrics are
// printed; with --trace 1 the same ops are re-enacted layer by layer
// under a span recorder and the per-layer metrics are printed instead.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// workRoot holds everything a run writes: stores, design files, span
// files. It is relative to the checkout the benchmark runs from. Runs
// delete nothing: on a file system mounted with online discard, freeing
// the blocks of a few hundred megabytes of store files slows file
// creation for minutes afterwards, in this run and the next ones.
// Remove the directory to reclaim the space.
const workRoot = ".bench_build/perfbench"

// config is what every workload gets from the command line.
type config struct {
	seed    int64
	seconds float64
	dir     string // this run's private working directory
	workers int    // the driver's worker pool (GOMAXPROCS)
}

// workload is one benchmark workload. setup runs setupReps times (the
// median is setup_s); measure runs the untraced ops until the
// deadline; check verifies outputs once the ops are done; traced runs
// the layer-by-layer measurement instead of measure.
type workload interface {
	setupReps() int
	setup() error
	teardown()
	measure(deadline time.Time, m *meter) error
	check(m *meter)
	traced(deadline time.Time, rec *recorder, m *meter) (layerMetrics, error)
}

var workloads = map[string]func(config) workload{
	"mega-cold":    func(c config) workload { return &megaCold{cfg: c} },
	"edit-rebuild": func(c config) workload { return &editRebuild{cfg: c} },
	"serve-step":   func(c config) workload { return &serveStep{cfg: c} },
	"table1":       func(c config) workload { return &table1{cfg: c} },
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics maps per-layer metric names to values; units come from
// perLayer.
type layerMetrics map[string]float64

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed (design, edits, stimulus)")
	seconds := fs.Float64("seconds", 20, "how long the timed ops run")
	trace := fs.Int("trace", 0, "1 runs the traced layer-by-layer measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctor, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(workRoot, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// One processor: on a small VM the host sometimes runs both vCPUs
	// on one core, which swung ops that use two processors by 2x from
	// one run to the next. One P keeps every op on one core's speed.
	runtime.GOMAXPROCS(1)
	cfg := config{seed: *seed, seconds: *seconds, dir: dir, workers: runtime.GOMAXPROCS(0)}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d nproc=%d stores in %s (%s)\n",
		*name, cfg.seed, cfg.seconds, *trace, cfg.workers, runtime.NumCPU(), dir, fsType(dir))

	res, err := measureWorkload(ctor(cfg), cfg, *name, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	report(os.Stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measureWorkload sets the workload up (several times, for a steady
// setup_s), runs it untraced or traced, checks its outputs and
// assembles the result.
func measureWorkload(w workload, cfg config, name string, traced bool) (*result, error) {
	// A traced run reports no setup_s, so it sets up once.
	reps := w.setupReps()
	if traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		settle()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	m := newMeter()
	defer m.heap.stop()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	res := &result{Metrics: map[string]metric{}}
	if traced {
		rec := newRecorder()
		lm, err := w.traced(deadline, rec, m)
		if err != nil {
			return nil, err
		}
		spans := rec.snapshot()
		path, err := writeSpans(filepath.Join(workRoot, "traces"),
			fmt.Sprintf("%s-seed%d-pid%d.jsonl", name, cfg.seed, os.Getpid()), spans)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
		lm["trace.spans"] = float64(len(spans))
		for _, pl := range perLayer {
			res.Metrics[pl.name] = metric{Value: lm[pl.name], Unit: pl.unit}
		}
	} else {
		if err := w.measure(deadline, m); err != nil {
			return nil, err
		}
		w.check(m)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["latency_ms"] = metric{median(m.lat), "ms"}
		res.Metrics["work_per_s"] = metric{m.work / m.wall.Seconds(), "1/s"}
		res.Metrics["peak_heap_mb"] = metric{median(m.heap.peaks), "MB"}
		if p90, ok := percentile(m.lat, 0.9); ok {
			fmt.Fprintf(os.Stderr, "perfbench: latency_p90_ms %.4f ms over %d ops\n", p90, len(m.lat))
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: latency_p90_ms not reported: %d ops leave fewer than %d beyond it\n", len(m.lat), minTail)
		}
		fmt.Fprintf(os.Stderr, "perfbench: setup_s samples %v\n", setups)
		if len(m.lat) < 50 {
			fmt.Fprintf(os.Stderr, "perfbench: op latencies %v\n", m.lat)
		}
	}
	if m.attempted == 0 {
		return nil, fmt.Errorf("no op attempted")
	}
	res.Attempted, res.Failed = m.attempted, m.failed
	res.Correct = m.failed == 0
	for _, e := range m.errs {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", e)
	}
	return res, nil
}

// report prints the metrics one per line, for people.
func report(w *os.File, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "perfbench: %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "perfbench: attempted=%d failed=%d correct=%t\n", res.Attempted, res.Failed, res.Correct)
}

// meter accumulates one run's op measurements.
type meter struct {
	lat       []float64 // op latencies, ms
	work      float64   // work units completed
	wall      time.Duration
	attempted int
	failed    int
	errs      []string
	heap      *heapSampler
}

func newMeter() *meter { return &meter{heap: startHeapSampler()} }

// fail records a failed op or output check.
func (m *meter) fail(format string, args ...any) {
	m.failed++
	if len(m.errs) < 20 {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

// seqOps is a workload whose ops run one after another: prepare and
// verify run outside the timed region.
type seqOps struct {
	prepare func(i int) error
	op      func(i int) (units float64, err error)
	verify  func(i int) error
}

// runSeq runs ops until the deadline (at least one), each after a
// file-system flush and a garbage collection.
func runSeq(deadline time.Time, m *meter, s seqOps) error {
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if s.prepare != nil {
			if err := s.prepare(i); err != nil {
				return fmt.Errorf("prepare op %d: %w", i, err)
			}
		}
		settle()
		runtime.GC()
		m.heap.track(true)
		t0 := time.Now()
		units, err := s.op(i)
		d := time.Since(t0)
		m.heap.track(false)
		m.attempted++
		m.lat = append(m.lat, float64(d)/1e6)
		m.wall += d
		if err != nil {
			m.fail("op %d: %v", i, err)
			continue
		}
		m.work += units
		if s.verify != nil {
			if err := s.verify(i); err != nil {
				m.fail("op %d: %v", i, err)
			}
		}
	}
	return nil
}

// heapSampler samples the Go heap in use (HeapInuse) every 5 ms while
// an op runs and keeps each op's peak.
type heapSampler struct {
	mu      sync.Mutex
	on      bool
	cur     uint64
	peaks   []float64 // MB, one per op
	samples []metrics.Sample
	quit    chan struct{}
	wg      sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.mu.Lock()
				if h.on {
					h.sample()
				}
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// sample reads the heap in use; h.mu is held.
func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	h.cur = max(h.cur, h.samples[0].Value.Uint64()+h.samples[1].Value.Uint64())
}

// track starts (on) or ends an op. Both ends take a sample, so even an
// op shorter than the sampling period is seen.
func (h *heapSampler) track(on bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if on {
		h.cur = 0
	}
	h.sample()
	if !on {
		h.peaks = append(h.peaks, float64(h.cur)/(1<<20))
	}
	h.on = on
}

func (h *heapSampler) stop() {
	close(h.quit)
	h.wg.Wait()
}

// memDelta is the Go runtime's view of one op: allocation, GC cycles
// and pause time between two MemStats readings.
type memDelta struct {
	allocMB, mallocs, gcCycles, gcPauseMS float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		allocMB:   float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		mallocs:   float64(b.Mallocs - a.Mallocs),
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseMS: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// put stores the runtime metrics of one op (averaged over n ops).
func (d memDelta) put(lm layerMetrics, n float64) {
	lm["runtime.alloc_mb"] = d.allocMB / n
	lm["runtime.mallocs"] = d.mallocs / n
	lm["runtime.gc_cycles"] = d.gcCycles / n
	lm["runtime.gc_pause_ms"] = d.gcPauseMS / n
}
