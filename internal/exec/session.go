package exec

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/cval"
)

// Session manages many independently stepping machines in one process
// — the serving substrate for concurrent simulations. Machines are
// id-addressed; each is guarded by its own mutex, so different
// machines step fully in parallel while a single machine's instants
// stay serialized. Snapshot-capable backends support forking: a forked
// machine is a fresh instance restored to the source's state, after
// which the two branch independently.
//
// A Session is safe for concurrent use.
type Session struct {
	mu      sync.Mutex
	entries map[string]*sessionEntry
	nextID  int
}

type sessionEntry struct {
	mu      sync.Mutex
	backend string
	design  *core.Design
	m       Machine
	// slots is non-nil when the machine steps through the slot-indexed
	// hot path (SlotStepper); the batch loops then bypass per-instant
	// map translation inside the backend. Guarded by mu like the
	// machine itself.
	slots   *stepSlotScratch
	instant int
	// closed marks an entry whose machine has been shut down (Close or
	// Evict). It is guarded by mu, so setting it serializes with any
	// in-flight Step/Fork/Reset on the same machine, and every
	// operation that acquires mu afterwards fails cleanly instead of
	// running against a machine its owner believes gone.
	closed bool
}

// guard reports the closed state; call with e.mu held.
func (e *sessionEntry) guard(id string) error {
	if e.closed {
		return fmt.Errorf("session: machine %q is closed", id)
	}
	return nil
}

// step runs one instant through the machine's fastest stepping path;
// call with e.mu held.
func (e *sessionEntry) step(in map[string]cval.Value) (*Result, error) {
	if e.slots != nil {
		return e.slots.step(in)
	}
	return e.m.Step(in)
}

// newSessionEntry prepares an entry, detecting the slot-indexed path.
func newSessionEntry(backend string, d *core.Design, m Machine, instant int) *sessionEntry {
	return &sessionEntry{
		backend: backend,
		design:  d,
		m:       m,
		slots:   newStepSlotScratch(m),
		instant: instant,
	}
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{entries: map[string]*sessionEntry{}}
}

// Open instantiates a machine of the named backend over the design and
// registers it under id (empty id allocates "m0", "m1", …). It returns
// the id the machine is addressable under.
func (s *Session) Open(id, backend string, d *core.Design) (string, error) {
	m, err := Open(backend, d)
	if err != nil {
		return "", err
	}
	return s.add(id, newSessionEntry(backend, d, m, 0))
}

// add registers a fully initialized entry; other goroutines can only
// address the machine once it is in the map.
func (s *Session) add(id string, e *sessionEntry) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		// Skip ids already taken explicitly: Open("m0", ...) followed
		// by Open("", ...) must allocate the next free id, not collide.
		for {
			id = fmt.Sprintf("m%d", s.nextID)
			s.nextID++
			if _, taken := s.entries[id]; !taken {
				break
			}
		}
	}
	if _, dup := s.entries[id]; dup {
		return "", fmt.Errorf("session: machine %q already exists", id)
	}
	s.entries[id] = e
	return id, nil
}

// lookup finds an entry under the session lock.
func (s *Session) lookup(id string) (*sessionEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, fmt.Errorf("session: no machine %q", id)
	}
	return e, nil
}

// Step runs one instant of the identified machine.
func (s *Session) Step(id string, inputs map[string]cval.Value) (*Result, error) {
	e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(id); err != nil {
		return nil, err
	}
	res, err := e.step(inputs)
	if err != nil {
		return nil, fmt.Errorf("machine %q instant %d: %w", id, e.instant, err)
	}
	e.instant++
	return res, nil
}

// StepBatch runs the machine through the input instants under one
// lock acquisition — the building block of the daemon's batched
// stepping, where the round trip rather than the step dominates.
// Stepping stops after the instant in which the program terminates
// (that instant's result is included). On a step error the results of
// the instants that did execute are returned alongside it.
func (s *Session) StepBatch(id string, batch []map[string]cval.Value) ([]*Result, error) {
	e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(id); err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(batch))
	for _, in := range batch {
		res, err := e.step(in)
		if err != nil {
			return results, fmt.Errorf("machine %q instant %d: %w", id, e.instant, err)
		}
		e.instant++
		results = append(results, res)
		if res.Terminated {
			break
		}
	}
	return results, nil
}

// StepEvents is StepBatch at the wire level: input instants arrive as
// encoded trace-event input maps, and each executed instant comes back
// as a full canonical trace Event (numbered by the machine's own
// instant counter) — so a daemon conversation transcribed as JSONL is
// literally a replayable trace. Events produced before a decode or
// step error are returned alongside it.
//
// On slot-stepping backends an event's Inputs is the caller's own map
// from inputs whenever all its values are already canonical (see
// EncodeValue), so neither should be modified afterwards.
func (s *Session) StepEvents(id string, inputs []map[string]string) ([]Event, error) {
	e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(id); err != nil {
		return nil, err
	}
	events := make([]Event, 0, len(inputs))
	for _, enc := range inputs {
		ev, err := e.stepEvent(enc)
		if err != nil {
			return events, fmt.Errorf("machine %q instant %d: %w", id, e.instant, err)
		}
		ev.Instant = e.instant
		events = append(events, ev)
		e.instant++
		if ev.Terminated {
			break
		}
	}
	return events, nil
}

// stepEvent runs one wire instant through the machine's fastest path;
// call with e.mu held.
func (e *sessionEntry) stepEvent(enc map[string]string) (Event, error) {
	if e.slots != nil {
		return e.slots.stepEncoded(enc)
	}
	in, err := DecodeInstant(e.m, enc)
	if err != nil {
		return Event{}, err
	}
	res, err := e.m.Step(in)
	if err != nil {
		return Event{}, err
	}
	return Event{Inputs: EncodeInstant(in), Outputs: EncodeInstant(res.Outputs), Terminated: res.Terminated}, nil
}

// Instant returns how many instants the machine has executed.
func (s *Session) Instant(id string) (int, error) {
	e, err := s.lookup(id)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(id); err != nil {
		return 0, err
	}
	return e.instant, nil
}

// MachineInfo describes one session machine's identity and progress.
type MachineInfo struct {
	ID         string
	Backend    string
	Module     string
	Instant    int
	Terminated bool
	Inputs     []Signal
	Outputs    []Signal
}

// Info reports a machine's identity, interface, and progress in one
// consistent observation.
func (s *Session) Info(id string) (MachineInfo, error) {
	e, err := s.lookup(id)
	if err != nil {
		return MachineInfo{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(id); err != nil {
		return MachineInfo{}, err
	}
	return MachineInfo{
		ID:         id,
		Backend:    e.backend,
		Module:     e.m.Module(),
		Instant:    e.instant,
		Terminated: e.m.Terminated(),
		Inputs:     e.m.Inputs(),
		Outputs:    e.m.Outputs(),
	}, nil
}

// Terminated reports whether the identified machine has finished.
func (s *Session) Terminated(id string) (bool, error) {
	e, err := s.lookup(id)
	if err != nil {
		return false, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(id); err != nil {
		return false, err
	}
	return e.m.Terminated(), nil
}

// Reset rewinds the identified machine to its boot state.
func (s *Session) Reset(id string) error {
	e, err := s.lookup(id)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(id); err != nil {
		return err
	}
	if err := e.m.Reset(); err != nil {
		return err
	}
	e.instant = 0
	return nil
}

// Fork snapshots the src machine and opens a fresh machine of the same
// backend restored to that state under dst (empty dst allocates an
// id). The two machines then evolve independently. Backends without
// snapshot support return ErrUnsupported. The forked machine is fully
// restored before it becomes addressable, so a concurrent Step can
// never observe it in boot state.
func (s *Session) Fork(src, dst string) (string, error) {
	e, err := s.lookup(src)
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	if err := e.guard(src); err != nil {
		e.mu.Unlock()
		return "", err
	}
	snap, err := e.m.Snapshot()
	instant := e.instant
	e.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("session: fork %q: %w", src, err)
	}
	m, err := Open(e.backend, e.design)
	if err != nil {
		return "", err
	}
	if err := m.Restore(snap); err != nil {
		return "", fmt.Errorf("session: fork %q: %w", src, err)
	}
	return s.add(dst, newSessionEntry(e.backend, e.design, m, instant))
}

// Close removes the identified machine. It serializes with the
// machine's own mutex, so an in-flight Step or Fork on another
// goroutine finishes (or fails) before the machine is considered
// closed — never silently continuing against a machine the caller
// believes gone — and any operation arriving after Close fails
// cleanly. Of two racing Closes exactly one succeeds.
func (s *Session) Close(id string) error {
	e, err := s.lookup(id)
	if err != nil {
		return err
	}
	e.mu.Lock()
	if err := e.guard(id); err != nil {
		e.mu.Unlock()
		return err
	}
	e.closed = true
	e.mu.Unlock()
	s.remove(id, e)
	return nil
}

// remove drops a closed entry from the id map (only if the id still
// names this entry: the id may have been reused after an earlier
// removal).
func (s *Session) remove(id string, e *sessionEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[id] == e {
		delete(s.entries, id)
	}
}

// Evict atomically serializes and closes a machine: the snapshot is
// taken and encoded under the machine's own lock, so no concurrent
// Step can slip between the captured state and the close. The returned
// blob revives the machine via Restore — the daemon's idle-session
// persistence. Backends without portable snapshots (sim) report
// ErrUnsupported and stay open.
func (s *Session) Evict(id string) ([]byte, error) {
	e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if err := e.guard(id); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	snap, err := e.m.Snapshot()
	if err != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("session: evict %q: %w", id, err)
	}
	blob, err := EncodeSnapshot(e.m, snap, e.instant)
	if err != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("session: evict %q: %w", id, err)
	}
	e.closed = true
	e.mu.Unlock()
	s.remove(id, e)
	return blob, nil
}

// Restore opens a machine of the named backend over the design,
// rewinds it to an Evict-produced blob, and registers it under id
// (empty id allocates one) — the other half of daemon session
// revival. The machine is fully restored before it becomes
// addressable.
func (s *Session) Restore(id, backend string, d *core.Design, blob []byte) (string, error) {
	m, err := Open(backend, d)
	if err != nil {
		return "", err
	}
	snap, instant, err := DecodeSnapshot(m, blob)
	if err != nil {
		return "", fmt.Errorf("session: restore %q: %w", id, err)
	}
	if err := m.Restore(snap); err != nil {
		return "", fmt.Errorf("session: restore %q: %w", id, err)
	}
	return s.add(id, newSessionEntry(backend, d, m, instant))
}

// IDs lists the session's machine ids, sorted.
func (s *Session) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.entries))
	for id := range s.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len reports how many machines the session holds.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
