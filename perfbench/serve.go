package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cval"
	"repro/internal/driver"
	"repro/internal/eclgen"
	"repro/internal/exec"
	"repro/internal/paperex"
	"repro/internal/simd"
)

const (
	// batchSize is the instants per step request.
	batchSize = 64
	// streamBatches is the length of each design's stimulus stream, in
	// batches; a session cycles through its stream.
	streamBatches = 32
	// genPrograms is how many seeded eclgen programs run next to the
	// paper's stack.
	genPrograms = 15
	// replayBatches is how much of each conversation is kept and
	// replay-diffed through interp after the run.
	replayBatches = 8
)

// serveBackends are the backends every design runs on: the daemon's
// default and the table-compiled one.
var serveBackends = []string{"efsm", "efsm-table"}

// serveDesign is one design the daemon serves, with its stimulus.
type serveDesign struct {
	name, src string
	stack     bool
	batches   [][]map[string]string // wire-encoded input instants
	local     *core.Design          // compiled in process, for checks and twins
}

// serveSession is one daemon session and its conversation so far.
type serveSession struct {
	id      string
	backend string
	design  *serveDesign
	next    int          // requests sent
	events  []exec.Event // the first replayBatches responses
}

// serveStep drives step requests at an in-process eclsimd over
// loopback HTTP.
type serveStep struct {
	cfg      config
	designs  []*serveDesign
	sessions []*serveSession

	reps   int // set-ups so far
	store  string
	daemon *simd.Daemon
	srv    *http.Server
	served chan struct{}
	tr     *http.Transport
	client *simd.Client
	mw     *handlerSpans
}

func (w *serveStep) setupReps() int { return 5 }

// setup starts the daemon, opens every session and draws the stimulus.
func (w *serveStep) setup() error {
	w.reps++
	w.store = filepath.Join(w.cfg.dir, fmt.Sprintf("serve-store-%d", w.reps))
	store, err := cache.Open(w.store)
	if err != nil {
		return err
	}
	d := driver.New(w.cfg.workers)
	d.Disk = store
	if w.daemon, err = simd.New(simd.Config{Driver: d, Store: store}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.mw = &handlerSpans{next: w.daemon}
	w.srv = &http.Server{Handler: w.mw, ReadHeaderTimeout: time.Minute}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(ln)
	}()
	w.tr = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	if w.client, err = simd.DialWith("http://"+ln.Addr().String(), &http.Client{Transport: w.tr, Timeout: time.Minute}); err != nil {
		return err
	}

	w.designs = []*serveDesign{{name: "stack.ecl", src: paperex.Stack, stack: true}}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	for k := 0; k < genPrograms; k++ {
		w.designs = append(w.designs, &serveDesign{name: fmt.Sprintf("gen%d.ecl", k), src: eclgen.Program(rng.Int63())})
	}
	w.sessions = nil
	for k, d := range w.designs {
		for _, b := range serveBackends {
			info, err := w.client.Open(simd.OpenRequest{Path: d.name, Source: d.src, Backend: b})
			if err != nil {
				return fmt.Errorf("open %s on %s: %w", d.name, b, err)
			}
			if d.batches == nil {
				d.batches = stimulus(d.stack, info.Inputs, w.cfg.seed+int64(k))
			}
			w.sessions = append(w.sessions, &serveSession{id: info.ID, backend: b, design: d})
		}
	}
	return nil
}

func (w *serveStep) teardown() {
	if w.srv != nil {
		w.srv.Close()
		<-w.served
		w.daemon.Close()
		w.tr.CloseIdleConnections()
		w.srv = nil
	}
}

// stimulus draws a design's input stream: packets byte by byte for the
// stack (every fourth one corrupted, with the gap the header scan
// needs), seeded random instants for a generated program.
func stimulus(stack bool, inputs []simd.SignalInfo, seed int64) [][]map[string]string {
	var instants []map[string]string
	if stack {
		for p := 0; len(instants) < streamBatches*batchSize; p++ {
			pkt := paperex.MakePacket(p%4 != 3)
			for _, b := range pkt {
				instants = append(instants, map[string]string{"in_byte": simd.EncodeIntValue(1, int64(b))})
			}
			for i := 0; i < paperex.HdrSize+2; i++ {
				instants = append(instants, map[string]string{})
			}
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		for len(instants) < streamBatches*batchSize {
			in := map[string]string{}
			for _, sig := range inputs {
				if rng.Float64() >= 0.4 {
					continue
				}
				v := ""
				if !sig.Pure {
					v = simd.EncodeIntValue(sig.Size, int64(rng.Intn(256)))
				}
				in[sig.Name] = v
			}
			instants = append(instants, in)
		}
	}
	batches := make([][]map[string]string, streamBatches)
	for i := range batches {
		batches[i] = instants[i*batchSize : (i+1)*batchSize]
	}
	return batches
}

// randomInstants draws n seeded input instants for a machine: each
// input present with probability 0.4, valued ones carrying a byte.
func randomInstants(rng *rand.Rand, inputs []exec.Signal, n int) []map[string]cval.Value {
	out := make([]map[string]cval.Value, n)
	for i := range out {
		in := map[string]cval.Value{}
		for _, sig := range inputs {
			if rng.Float64() >= 0.4 {
				continue
			}
			var v cval.Value
			if !sig.Pure && sig.Type != nil {
				v = cval.FromInt(sig.Type, int64(rng.Intn(256)))
			}
			in[sig.Name] = v
		}
		out[i] = in
	}
	return out
}

// loop is the closed loop: one client connection that sends the next
// step request only when the last one returned, to the sessions in
// turn, until the deadline. It returns the request latencies (ms), the
// instants executed and the wall time.
func (w *serveStep) loop(deadline time.Time, m *meter, rec *recorder) (lat []float64, steps int64, wall time.Duration) {
	t0 := time.Now()
	for k := 0; time.Now().Before(deadline); k++ {
		s := w.sessions[k%len(w.sessions)]
		batch := s.design.batches[s.next%streamBatches]
		var sp spanRef
		if rec != nil {
			sp = rec.begin(rec.newID(), 0, "simd.request")
			w.mw.current.Store(&sp)
		}
		start := time.Now()
		events, err := w.client.StepEvents(s.id, batch)
		d := time.Since(start)
		sp.end()
		lat = append(lat, float64(d)/1e6)
		m.attempted++
		if err == nil && len(events) != len(batch) {
			err = fmt.Errorf("%d of %d instants executed", len(events), len(batch))
		}
		if err != nil {
			m.fail("session %s (%s) request %d: %v", s.id, s.backend, s.next, err)
		} else if s.next < replayBatches {
			s.events = append(s.events, events...)
		}
		s.next++
		steps += int64(len(events))
	}
	return lat, steps, time.Since(t0)
}

func (w *serveStep) measure(deadline time.Time, m *meter) error {
	settle()
	runtime.GC()
	m.heap.track(true)
	lat, steps, wall := w.loop(deadline, m, nil)
	m.heap.track(false)
	m.lat, m.work, m.wall = lat, float64(steps), wall
	return nil
}

// check replays the start of every conversation through interp.
func (w *serveStep) check(m *meter) {
	for _, s := range w.sessions {
		if err := w.replay(s); err != nil {
			m.fail("session %s (%s on %s): %v", s.id, s.design.name, s.backend, err)
		}
	}
}

func (w *serveStep) replay(s *serveSession) error {
	d, err := s.design.compiled()
	if err != nil {
		return err
	}
	if len(s.events) == 0 {
		return errors.New("no conversation recorded")
	}
	ref, err := exec.Open("interp", d)
	if err != nil {
		return err
	}
	recorded := &exec.Trace{Module: ref.Module(), Backend: s.backend, Events: s.events}
	got, err := exec.Replay(ref, recorded)
	if err != nil {
		return err
	}
	return exec.Diff(recorded, got)
}

// compiled compiles the design in process (the daemon's default
// module: the file's last).
func (d *serveDesign) compiled() (*core.Design, error) {
	if d.local != nil {
		return d.local, nil
	}
	prog, err := core.Parse(d.name, d.src, core.Options{})
	if err != nil {
		return nil, err
	}
	mods := prog.Modules()
	if d.local, err = prog.Compile(mods[len(mods)-1]); err != nil {
		return nil, err
	}
	return d.local, nil
}

// handlerSpans is the benchmark's middleware around Daemon.ServeHTTP.
// While a traced loop runs (one connection, so one request at a time)
// it records each handler call as a child of the client's request span,
// with the heap objects allocated inside it.
type handlerSpans struct {
	next    http.Handler
	current atomic.Pointer[spanRef]
	samples [2]metrics.Sample
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := h.current.Load()
	if parent == nil || parent.r == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	a0 := h.allocs()
	sp := parent.r.begin(parent.trace, parent.id, "simd.handler")
	h.next.ServeHTTP(w, r)
	sp.endAllocs(h.allocs() - a0)
}

// allocs reads the process's heap allocation count (objects and tiny
// allocations).
func (h *handlerSpans) allocs() int64 {
	h.samples[0].Name = "/gc/heap/allocs:objects"
	h.samples[1].Name = "/gc/heap/tiny/allocs:objects"
	metrics.Read(h.samples[:])
	return int64(h.samples[0].Value.Uint64() + h.samples[1].Value.Uint64())
}

// traced splits the window: an untraced closed loop on one connection,
// the same loop traced, then the layers below the wire measured on
// the same batches in process.
func (w *serveStep) traced(deadline time.Time, rec *recorder, m *meter) (layerMetrics, error) {
	lm := layerMetrics{}
	window := time.Until(deadline)
	mid := time.Now().Add(window * 2 / 5)

	before := readMem()
	plain, plainSteps, _ := w.loop(mid, m, nil)
	after := readMem()
	mem := diffMem(before, after)
	mem.put(lm, float64(len(plain)))
	lm["simd.allocs_per_step"] = mem.mallocs / float64(plainSteps)

	traced, tracedSteps, _ := w.loop(mid.Add(window*2/5), m, rec)
	w.mw.current.Store(nil)
	spans := rec.snapshot()
	totals := layerTotals(spans)
	req, hnd := totals["simd.request"], totals["simd.handler"]
	lm["simd.handler_us_per_step"] = float64(hnd.selfNS) / 1e3 / float64(tracedSteps)
	lm["simd.handler_allocs_per_step"] = float64(hnd.allocs) / float64(tracedSteps)
	lm["simd.transport_us_per_step"] = float64(req.selfNS) / 1e3 / float64(tracedSteps)
	lm["trace.unattributed_ms"] = float64(req.selfNS) / 1e6 / float64(req.calls)
	lm["trace.overhead_pct"] = (median(traced)/median(plain) - 1) * 100

	if err := w.twins(lm, rec); err != nil {
		return nil, err
	}
	w.check(m)
	return lm, nil
}

// twins steps the layers below the wire over the same batches: an
// exec.Session per design and backend (StepEvents), the efsm-table
// machines through StepSlots, and the efsm machines through Step.
func (w *serveStep) twins(lm layerMetrics, rec *recorder) error {
	const passes = 2
	trace := rec.newID()
	var sessionNS, sessionSteps, tableNS, tableSteps, efsmNS, efsmSteps int64
	var sessionAllocs, tableAllocs, efsmAllocs uint64
	for _, d := range w.designs {
		design, err := d.compiled()
		if err != nil {
			return err
		}
		for _, b := range serveBackends {
			sess := exec.NewSession()
			id, err := sess.Open("", b, design)
			if err != nil {
				return err
			}
			before := readMem()
			t0 := time.Now()
			for p := 0; p < passes; p++ {
				for _, batch := range d.batches {
					sp := rec.begin(trace, 0, "exec.session")
					if _, err := sess.StepEvents(id, batch); err != nil {
						return err
					}
					sp.end()
				}
			}
			sessionNS += int64(time.Since(t0))
			sessionAllocs += readMem().Mallocs - before.Mallocs
			sessionSteps += passes * streamBatches * batchSize
		}

		ns, allocs, steps, err := stepTable(design, d.batches, rec, trace)
		if err != nil {
			return err
		}
		tableNS, tableAllocs, tableSteps = tableNS+ns, tableAllocs+allocs, tableSteps+steps
		ns, allocs, steps, err = stepEFSM(design, d.batches, rec, trace)
		if err != nil {
			return err
		}
		efsmNS, efsmAllocs, efsmSteps = efsmNS+ns, efsmAllocs+allocs, efsmSteps+steps
	}
	lm["exec.session_us_per_step"] = float64(sessionNS) / 1e3 / float64(sessionSteps)
	lm["exec.session_allocs_per_step"] = float64(sessionAllocs) / float64(sessionSteps)
	lm["table.step_ns"] = float64(tableNS) / float64(tableSteps)
	lm["table.allocs_per_step"] = float64(tableAllocs) / float64(tableSteps)
	lm["efsm.step_ns"] = float64(efsmNS) / float64(efsmSteps)
	lm["efsm.allocs_per_step"] = float64(efsmAllocs) / float64(efsmSteps)
	return nil
}

// decodeBatches turns wire instants into a machine's input maps.
func decodeBatches(m exec.Machine, batches [][]map[string]string) ([]map[string]cval.Value, error) {
	var out []map[string]cval.Value
	for _, batch := range batches {
		for _, enc := range batch {
			in, err := exec.DecodeInstant(m, enc)
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// stepTable drives a fresh efsm-table machine through the stream with
// StepSlots, the inputs bound to slot vectors beforehand.
func stepTable(d *core.Design, batches [][]map[string]string, rec *recorder, trace int64) (ns int64, allocs uint64, steps int64, err error) {
	m, err := exec.Open("efsm-table", d)
	if err != nil {
		return 0, 0, 0, err
	}
	ss, ok := m.(exec.SlotStepper)
	if !ok {
		return 0, 0, 0, errors.New("efsm-table is not a SlotStepper")
	}
	ins, err := decodeBatches(m, batches)
	if err != nil {
		return 0, 0, 0, err
	}
	ports := ss.Ports()
	present := make([][]bool, len(ins))
	vals := make([][]cval.Value, len(ins))
	for j, in := range ins {
		present[j], vals[j] = ports.NewPresent(), ports.NewInputs()
		if err := ports.BindInstant(in, present[j], vals[j]); err != nil {
			return 0, 0, 0, err
		}
	}
	out := ports.NewOutputs()
	const passes = 20
	before := readMem()
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for j := 0; j < len(ins); j += batchSize {
			sp := rec.begin(trace, 0, "table.step")
			for k := j; k < j+batchSize; k++ {
				if _, err := ss.StepSlots(present[k], vals[k], out); err != nil {
					return 0, 0, 0, err
				}
			}
			sp.end()
		}
	}
	return int64(time.Since(t0)), readMem().Mallocs - before.Mallocs, passes * int64(len(ins)), nil
}

// stepEFSM drives a fresh efsm machine (efsm.Runtime) through the
// stream with Machine.Step.
func stepEFSM(d *core.Design, batches [][]map[string]string, rec *recorder, trace int64) (ns int64, allocs uint64, steps int64, err error) {
	m, err := exec.Open("efsm", d)
	if err != nil {
		return 0, 0, 0, err
	}
	ins, err := decodeBatches(m, batches)
	if err != nil {
		return 0, 0, 0, err
	}
	const passes = 2
	before := readMem()
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for j := 0; j < len(ins); j += batchSize {
			sp := rec.begin(trace, 0, "efsm.step")
			for k := j; k < j+batchSize; k++ {
				if _, err := m.Step(ins[k]); err != nil {
					return 0, 0, 0, err
				}
			}
			sp.end()
		}
	}
	return int64(time.Since(t0)), readMem().Mallocs - before.Mallocs, passes * int64(len(ins)), nil
}
