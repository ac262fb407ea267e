package simd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/driver"
	"repro/internal/exec"
	"repro/internal/httpjson"
)

// DefaultMaxSessions bounds resident machines when Config.MaxSessions
// is zero.
const DefaultMaxSessions = 1024

// maxBodyBytes bounds one request body (an open request's inline
// source, or one batch of input events).
const maxBodyBytes = 64 << 20

// Config assembles a Daemon.
type Config struct {
	// Driver compiles designs (through its tiered cache) for opens and
	// revivals. Required.
	Driver *driver.Driver
	// Store persists evicted sessions as snapshot blobs. Without it
	// eviction is disabled: idle sessions stay resident and the
	// max-sessions bound refuses new opens instead of evicting.
	Store *cache.Store
	// Backend is the default execution backend for opens ("efsm" when
	// empty).
	Backend string
	// MaxSessions bounds resident machines (0 means
	// DefaultMaxSessions); opening past the bound evicts the least
	// recently touched session first.
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long (0 disables
	// TTL eviction).
	IdleTTL time.Duration
	// Logf receives operational messages (nil discards them).
	Logf func(format string, args ...any)
}

// Daemon serves many concurrently stepping execution sessions over
// HTTP — the execution-side counterpart of eclcached. It implements
// http.Handler; Close stops its background eviction loop.
type Daemon struct {
	cfg     Config
	session *exec.Session
	mux     *http.ServeMux

	stopOnce sync.Once
	stop     chan struct{}

	mu   sync.Mutex
	recs map[string]*record

	opens, closes, forks, resets  atomic.Int64
	steps, batches                atomic.Int64
	evictions, revivals, errCount atomic.Int64
}

// record is the daemon's per-session bookkeeping: how to recompile the
// design (for revival), when the session was last touched, and where
// its snapshot lives while evicted.
type record struct {
	id      string
	backend string
	req     driver.Request // recompile recipe for revival

	// reviveMu serializes this session's evict/revive transitions.
	reviveMu sync.Mutex

	// Guarded by Daemon.mu:
	lastTouch time.Time
	evicted   bool
	snapKey   string // cache key of the snapshot blob while evicted
	instant   int    // instant count at eviction (for Info)
	module    string
	done      bool // terminated flag at eviction
}

// New assembles a daemon over the config. The caller serves it with
// http.Serve and should Close it on shutdown.
func New(cfg Config) (*Daemon, error) {
	if cfg.Driver == nil {
		return nil, errors.New("simd: config needs a Driver")
	}
	if cfg.Backend == "" {
		cfg.Backend = "efsm"
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	d := &Daemon{
		cfg:     cfg,
		session: exec.NewSession(),
		mux:     http.NewServeMux(),
		stop:    make(chan struct{}),
		recs:    make(map[string]*record),
	}
	d.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	d.mux.HandleFunc("GET /statsz", d.statsz)
	d.mux.HandleFunc("POST /v1/machines", d.open)
	d.mux.HandleFunc("GET /v1/machines", d.list)
	d.mux.HandleFunc("GET /v1/machines/{id}", d.info)
	d.mux.HandleFunc("DELETE /v1/machines/{id}", d.close)
	d.mux.HandleFunc("POST /v1/machines/{id}/step", d.step)
	d.mux.HandleFunc("POST /v1/machines/{id}/fork", d.fork)
	d.mux.HandleFunc("POST /v1/machines/{id}/reset", d.reset)
	if cfg.IdleTTL > 0 && cfg.Store != nil {
		go d.ttlLoop()
	}
	return d, nil
}

// ServeHTTP implements http.Handler.
func (d *Daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) { d.mux.ServeHTTP(w, r) }

// Close stops the background eviction loop. In-flight requests finish
// normally.
func (d *Daemon) Close() { d.stopOnce.Do(func() { close(d.stop) }) }

// Stats snapshots the daemon's counters.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	evicted := 0
	for _, rec := range d.recs {
		if rec.evicted {
			evicted++
		}
	}
	d.mu.Unlock()
	return Stats{
		Resident:  d.session.Len(),
		Evicted:   evicted,
		Opens:     d.opens.Load(),
		Closes:    d.closes.Load(),
		Forks:     d.forks.Load(),
		Resets:    d.resets.Load(),
		Steps:     d.steps.Load(),
		Batches:   d.batches.Load(),
		Evictions: d.evictions.Load(),
		Revivals:  d.revivals.Load(),
		Errors:    d.errCount.Load(),
	}
}

// ttlLoop periodically evicts sessions idle past the TTL.
func (d *Daemon) ttlLoop() {
	interval := d.cfg.IdleTTL / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.EvictIdle()
		}
	}
}

// EvictIdle evicts every resident session untouched for at least the
// configured IdleTTL, returning how many were evicted. (The TTL loop
// calls it; tests may too.)
func (d *Daemon) EvictIdle() int {
	if d.cfg.IdleTTL <= 0 {
		return 0
	}
	return d.evictIdle(d.cfg.IdleTTL)
}

// evictIdle evicts residents untouched for at least ttl (0 evicts
// every resident).
func (d *Daemon) evictIdle(ttl time.Duration) int {
	if d.cfg.Store == nil {
		return 0
	}
	cutoff := time.Now().Add(-ttl)
	d.mu.Lock()
	var victims []*record
	for _, rec := range d.recs {
		if !rec.evicted && rec.lastTouch.Before(cutoff) {
			victims = append(victims, rec)
		}
	}
	d.mu.Unlock()
	n := 0
	for _, rec := range victims {
		if d.evict(rec) {
			n++
		}
	}
	return n
}

// evict serializes one resident session into the store and closes it.
// It returns false when the session cannot be evicted (already gone,
// or a backend without portable snapshots).
func (d *Daemon) evict(rec *record) bool {
	rec.reviveMu.Lock()
	defer rec.reviveMu.Unlock()
	d.mu.Lock()
	gone := d.recs[rec.id] != rec || rec.evicted
	d.mu.Unlock()
	if gone {
		return false
	}
	blob, err := d.session.Evict(rec.id)
	if err != nil {
		// ErrUnsupported (sim backend) or a racing close: leave the
		// session as it is.
		if !errors.Is(err, exec.ErrUnsupported) {
			d.errCount.Add(1)
		}
		d.cfg.Logf("simd: evict %s: %v", rec.id, err)
		return false
	}
	key, err := d.cfg.Store.PutSnapshot(blob)
	if err != nil {
		// The machine is already closed; losing the blob would lose
		// the session. Restore it in place from the blob we hold.
		d.errCount.Add(1)
		d.cfg.Logf("simd: evict %s: persist: %v", rec.id, err)
		if _, rerr := d.restoreResident(rec, blob); rerr != nil {
			d.cfg.Logf("simd: evict %s: rollback failed: %v", rec.id, rerr)
		}
		return false
	}
	var meta struct {
		Instant int    `json:"instant"`
		Module  string `json:"module"`
		Done    bool   `json:"done"`
	}
	json.Unmarshal(blob, &meta)
	d.mu.Lock()
	rec.evicted = true
	rec.snapKey = key
	rec.instant = meta.Instant
	rec.module = meta.Module
	rec.done = meta.Done
	d.mu.Unlock()
	d.evictions.Add(1)
	return true
}

// restoreResident recompiles a record's design and restores its
// machine into the session from a snapshot blob.
func (d *Daemon) restoreResident(rec *record, blob []byte) (string, error) {
	res := d.cfg.Driver.BuildOne(rec.req)
	if res.Failed() {
		return "", fmt.Errorf("recompile: %w", res.Err)
	}
	return d.session.Restore(rec.id, rec.backend, res.Design, blob)
}

// revive brings an evicted session back to residency: fetch the blob,
// recompile the design through the tiered cache, restore. It is a
// no-op for resident sessions, so racing revivals are safe.
func (d *Daemon) revive(rec *record) error {
	rec.reviveMu.Lock()
	defer rec.reviveMu.Unlock()
	d.mu.Lock()
	evicted, key := rec.evicted, rec.snapKey
	d.mu.Unlock()
	if !evicted {
		return nil
	}
	blob, ok := d.cfg.Store.GetSnapshot(key)
	if !ok {
		return fmt.Errorf("simd: session %s: snapshot %s no longer in the store (GC'd?)", rec.id, key)
	}
	if _, err := d.restoreResident(rec, blob); err != nil {
		return fmt.Errorf("simd: session %s: revive: %w", rec.id, err)
	}
	d.mu.Lock()
	rec.evicted = false
	rec.snapKey = ""
	d.mu.Unlock()
	d.revivals.Add(1)
	return nil
}

// touch finds a session's record, refreshes its idle clock, and
// revives it if evicted. It returns nil when the id is unknown.
func (d *Daemon) touch(id string) (*record, error) {
	d.mu.Lock()
	rec := d.recs[id]
	if rec != nil {
		rec.lastTouch = time.Now()
	}
	d.mu.Unlock()
	if rec == nil {
		return nil, fmt.Errorf("simd: no machine %q", id)
	}
	if err := d.revive(rec); err != nil {
		d.errCount.Add(1)
		return nil, err
	}
	return rec, nil
}

// ensureCapacity makes room for n new resident machines, evicting the
// least recently touched residents until the bound holds. Admissions
// call it before compiling (n = 1) and again once the new machine is
// resident (n = 0, see admit), so a burst of concurrent opens ends
// back under the limit. Without a store eviction is impossible and the
// bound refuses growth instead.
func (d *Daemon) ensureCapacity(n int) error {
	// skip holds residents that failed to evict and are still present
	// — backends without portable snapshots — so the victim scan does
	// not pick the same immovable machine forever.
	var skip map[*record]bool
	for d.session.Len()+n > d.cfg.MaxSessions {
		if d.cfg.Store == nil {
			return fmt.Errorf("simd: session limit reached (%d resident, max %d)", d.session.Len(), d.cfg.MaxSessions)
		}
		d.mu.Lock()
		var oldest *record
		for _, rec := range d.recs {
			if rec.evicted || skip[rec] {
				continue
			}
			if oldest == nil || rec.lastTouch.Before(oldest.lastTouch) {
				oldest = rec
			}
		}
		d.mu.Unlock()
		if oldest == nil {
			return fmt.Errorf("simd: session limit reached (%d resident, max %d)", d.session.Len(), d.cfg.MaxSessions)
		}
		if !d.evict(oldest) {
			// Gone to a racing close/evict (harmless to skip — it is no
			// longer resident) or not serializable (must skip).
			if skip == nil {
				skip = map[*record]bool{}
			}
			skip[oldest] = true
		}
	}
	return nil
}

// admit registers a machine just opened or forked and enforces the
// resident bound again, now that the machine counts: concurrent
// admissions all pass the check made before compiling while none of
// them is resident yet. The returned info is captured first, because a
// concurrent admission may park the new session straight away. Without
// a store, or with only machines that cannot be parked, the bound
// cannot be restored here; the next admission's first check refuses
// instead.
func (d *Daemon) admit(rec *record) (MachineInfo, error) {
	info, err := d.machineInfo(rec.id)
	if err != nil {
		return MachineInfo{}, err
	}
	d.mu.Lock()
	d.recs[rec.id] = rec
	d.mu.Unlock()
	if err := d.ensureCapacity(0); err != nil {
		d.cfg.Logf("simd: admit %s: %v", rec.id, err)
	}
	return info, nil
}

// ---------------------------------------------------------------------------
// Handlers

func (d *Daemon) statsz(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, http.StatusOK, d.Stats())
}

func (d *Daemon) open(w http.ResponseWriter, r *http.Request) {
	var req OpenRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if req.Source == "" && req.Path == "" {
		http.Error(w, "open needs source text or a daemon-local path", http.StatusBadRequest)
		return
	}
	backend := req.Backend
	if backend == "" {
		backend = d.cfg.Backend
	}
	if err := d.ensureCapacity(1); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	breq := driver.Request{Path: req.Path, Source: req.Source, Module: req.Module}
	if breq.Path == "" {
		breq.Path = "daemon.ecl"
	}
	res := d.cfg.Driver.BuildOne(breq)
	if res.Failed() {
		lines := make([]string, 0, len(res.Diags))
		for _, diag := range res.Diags {
			lines = append(lines, diag.String())
		}
		if len(lines) == 0 {
			lines = append(lines, res.Err.Error())
		}
		http.Error(w, strings.Join(lines, "\n"), http.StatusBadRequest)
		return
	}
	id, err := d.session.Open(req.ID, backend, res.Design)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already exists") {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	info, err := d.admit(&record{id: id, backend: backend, req: breq, lastTouch: time.Now()})
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	d.opens.Add(1)
	httpjson.Write(w, http.StatusCreated, info)
}

func (d *Daemon) list(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	ids := make([]string, 0, len(d.recs))
	for id := range d.recs {
		ids = append(ids, id)
	}
	d.mu.Unlock()
	sort.Strings(ids)
	httpjson.Write(w, http.StatusOK, ids)
}

func (d *Daemon) info(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d.mu.Lock()
	rec := d.recs[id]
	var snap record
	if rec != nil {
		snap = record{evicted: rec.evicted, instant: rec.instant, module: rec.module, done: rec.done, backend: rec.backend}
	}
	d.mu.Unlock()
	if rec == nil {
		http.Error(w, fmt.Sprintf("simd: no machine %q", id), http.StatusNotFound)
		return
	}
	if snap.evicted {
		// Report the parked session without reviving it: observability
		// must not defeat eviction.
		httpjson.Write(w, http.StatusOK, MachineInfo{
			ID: id, Module: snap.module, Backend: snap.backend,
			Instant: snap.instant, Terminated: snap.done, Evicted: true,
		})
		return
	}
	mi, err := d.machineInfo(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	httpjson.Write(w, http.StatusOK, mi)
}

// machineInfo describes a resident machine.
func (d *Daemon) machineInfo(id string) (MachineInfo, error) {
	info, err := d.session.Info(id)
	if err != nil {
		return MachineInfo{}, err
	}
	return MachineInfo{
		ID:         info.ID,
		Module:     info.Module,
		Backend:    info.Backend,
		Instant:    info.Instant,
		Terminated: info.Terminated,
		Inputs:     signalInfos(info.Inputs),
		Outputs:    signalInfos(info.Outputs),
	}, nil
}

func (d *Daemon) close(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d.mu.Lock()
	rec := d.recs[id]
	delete(d.recs, id)
	d.mu.Unlock()
	if rec == nil {
		http.Error(w, fmt.Sprintf("simd: no machine %q", id), http.StatusNotFound)
		return
	}
	// An evicted session has no resident machine; dropping the record
	// is the close (the snapshot blob ages out of the store with GC).
	rec.reviveMu.Lock()
	evicted := rec.evicted
	rec.reviveMu.Unlock()
	if !evicted {
		if err := d.session.Close(id); err != nil {
			d.cfg.Logf("simd: close %s: %v", id, err)
		}
	}
	d.closes.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (d *Daemon) step(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := d.touch(id); err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	inputs, err := readInputEvents(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	events, stepErr := d.session.StepEvents(id, inputs)
	d.batches.Add(1)
	d.steps.Add(int64(len(events)))
	st := httpjson.NewStream(w, "simd: step "+id)
	var line []byte
	for i := range events {
		line = exec.AppendEvent(line[:0], &events[i])
		if !st.WriteLine(line) {
			return
		}
	}
	if stepErr != nil {
		d.errCount.Add(1)
		if !st.Encode(stepError{Error: stepErr.Error()}) {
			return
		}
	}
	st.Flush()
}

func (d *Daemon) fork(w http.ResponseWriter, r *http.Request) {
	src := r.PathValue("id")
	var req ForkRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	rec, err := d.touch(src)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	if err := d.ensureCapacity(1); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	dst, err := d.session.Fork(src, req.ID)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already exists") {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	info, err := d.admit(&record{id: dst, backend: rec.backend, req: rec.req, lastTouch: time.Now()})
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	d.forks.Add(1)
	httpjson.Write(w, http.StatusCreated, info)
}

func (d *Daemon) reset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := d.touch(id); err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	if err := d.session.Reset(id); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d.resets.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------------------
// Request plumbing

// decodeBody parses a JSON request body, writing the error response
// itself on failure. An empty body decodes as the zero request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "unreadable body", http.StatusBadRequest)
		return err
	}
	if len(body) == 0 {
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, fmt.Sprintf("bad request JSON: %v", err), http.StatusBadRequest)
		return err
	}
	return nil
}

// readInputEvents parses a step request's JSONL body: one trace event
// per line, of which only the input map is read. Blank lines are idle
// instants only when explicitly encoded as "{}" — a fully blank line
// is skipped, matching trace format tolerance.
func readInputEvents(r *http.Request) ([]map[string]string, error) {
	lr := lineReader{br: bufio.NewReader(http.MaxBytesReader(nil, r.Body, maxBodyBytes))}
	var inputs []map[string]string
	for n := 1; ; n++ {
		line, err := lr.next()
		if err == io.EOF {
			return inputs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("read body: %w", err)
		}
		var ev exec.Event
		if err := exec.ParseEvent(line, &ev); err != nil {
			return nil, fmt.Errorf("input event %d: %v", n, err)
		}
		inputs = append(inputs, ev.Inputs)
	}
}

// statusFor maps daemon errors onto HTTP statuses: unknown machines
// are 404, everything else a 500-class revival failure.
func statusFor(err error) int {
	if strings.Contains(err.Error(), "no machine") {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}
