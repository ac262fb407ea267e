// Package cache is a persistent, content-addressed store of pipeline
// phase snapshots: the on-disk tier behind internal/pipeline's memory
// tier, so separate eclc processes (and separate CI runs) pay for a
// phase once per content key.
//
// The store keeps one schema subtree under its root (default
// os.UserCacheDir()/ecl, overridable with $ECL_CACHE_DIR):
//
//	<root>/v2/manifests/<aa>/<phase-key>.json
//	<root>/v2/blobs/<aa>/<sha256-of-content>
//	<root>/v2/tmp/...
//
// A manifest maps one phase key (derived from the phase's inputs, see
// internal/pipeline) to the phase that produced it and its named
// blobs, so an edited design resumes compilation at its first dirty
// phase and replays everything downstream that still matches. The
// pipeline's root entry is a manifest like any other: its phase is
// "design", its key covers a whole request, it also records the
// resolved module, and its blobs are the very artifact texts the emit
// phases stored — so an unchanged rebuild reads one manifest and one
// blob per artifact without running any phase, and adds no blob of
// its own. Stores written by older builds may also hold a v1/
// subtree of whole-design manifests; nothing reads it, and GC
// removes it.
//
// Blobs are content-addressed (the file name is the SHA-256 of the
// bytes) and sharded by their first two hex digits. Every write goes
// through a temp file in tmp/ followed by an atomic rename on the same
// filesystem, so readers never observe a partial file and concurrent
// writers of the same content converge on identical bytes. Corrupt or
// truncated manifests and blobs are detected (JSON/shape validation
// for manifests, hash verification for blobs), treated as misses, and
// deleted so the next put repairs them — never an error to the build.
//
// A manifest is written whole, never merged, so puts take no lock;
// the GC sweep takes a best-effort lock file across processes. In
// process deduplication is the pipeline's single flight, and the
// atomic-rename discipline keeps even unlocked races safe, just
// possibly wasteful.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// PhaseSchemaVersion is the on-disk format version of the store's
// subtree; it names the v2/... paths and is checked inside every
// manifest.
const PhaseSchemaVersion = 2

// legacySubtree is the whole-design subtree of stores written by older
// builds: never read, removed by GC and Clear.
const legacySubtree = "v1"

// DesignPhase is the phase name of the pipeline's root entry: a whole
// request's resolved module and artifacts, keyed on the request.
const DesignPhase = "design"

// EnvDir is the environment variable overriding the default store
// location.
const EnvDir = "ECL_CACHE_DIR"

// DefaultDir returns the store root used when no directory is
// configured: $ECL_CACHE_DIR, else os.UserCacheDir()/ecl.
func DefaultDir() (string, error) {
	if dir := os.Getenv(EnvDir); dir != "" {
		return dir, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("cache: no user cache dir (set %s): %w", EnvDir, err)
	}
	return filepath.Join(base, "ecl"), nil
}

// Entry is a root (design) entry in the form Get and Put take: the
// resolved module and its blobs by name.
type Entry struct {
	Module    string
	Artifacts map[string]string
}

// PhaseEntry is one phase key's cached state: the pipeline phase that
// produced it, the resolved module (design entries only) and its named
// snapshot blobs (serialized IR, rendered artifact text, ...).
type PhaseEntry struct {
	Phase  string
	Module string
	Blobs  map[string]string
}

// ValidManifest reports whether a manifest of the given phase, module
// and blob count may be stored: every manifest names its phase and at
// least one blob, and a design manifest also its module.
func ValidManifest(phase, module string, blobs int) bool {
	return phase != "" && blobs > 0 && (phase != DesignPhase || module != "")
}

// Stats counts store traffic since Open. PhaseHits, PhaseMisses and
// PhasePuts count GetPhase and PutPhase calls, root entries included;
// Hits, Misses and Puts count the Get and Put calls. Evictions
// accumulate across GC calls; Errors counts corruption and I/O
// problems on either path — swallowed as misses on reads, returned to
// the caller on writes.
type Stats struct {
	Hits, Misses, Puts                int64
	PhaseHits, PhaseMisses, PhasePuts int64
	Evictions, Errors                 int64
}

// Tier is the store shape the build consults, tier-agnostically: the
// on-disk Store implements it, and so does the HTTP client in
// internal/cache/remote, which is how a shared remote cache slots in
// behind the same calls as the local disk. GetPhase reports misses
// (never errors); PutPhase is best-effort for callers that treat
// persistence as an optimization.
type Tier interface {
	GetPhase(key string, want []string) (*PhaseEntry, bool)
	PutPhase(key string, e *PhaseEntry) error
}

// Store is a persistent phase-snapshot cache rooted at one directory.
// It is safe for concurrent use by multiple goroutines and multiple
// processes.
type Store struct {
	dir  string // store root
	root string // the v2 subtree

	hits, misses, puts                atomic.Int64
	phaseHits, phaseMisses, phasePuts atomic.Int64
	evictions, errors                 atomic.Int64
}

var _ Tier = (*Store)(nil)

// Open returns a store rooted at dir ("" means DefaultDir), creating
// the directory tree as needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		var err error
		dir, err = DefaultDir()
		if err != nil {
			return nil, err
		}
	}
	s := &Store{dir: dir, root: filepath.Join(dir, fmt.Sprintf("v%d", PhaseSchemaVersion))}
	for _, sub := range []string{"manifests", "blobs", "tmp"} {
		if err := os.MkdirAll(filepath.Join(s.root, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	return s, nil
}

// Dir returns the store's root directory (without the version
// component).
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		PhaseHits:   s.phaseHits.Load(),
		PhaseMisses: s.phaseMisses.Load(),
		PhasePuts:   s.phasePuts.Load(),
		Evictions:   s.evictions.Load(),
		Errors:      s.errors.Load(),
	}
}

// manifest is the on-disk record for one phase key.
type manifest struct {
	Version int               `json:"version"`
	Key     string            `json:"key"`
	Phase   string            `json:"phase"`
	Module  string            `json:"module,omitempty"`
	Blobs   map[string]string `json:"blobs"` // blob name -> blob hash
}

func (m *manifest) valid(key string) bool {
	return m.Version == PhaseSchemaVersion && m.Key == key && ValidManifest(m.Phase, m.Module, len(m.Blobs))
}

// GetPhase looks up a phase key and resolves the wanted blob names. It
// returns ok=false — a miss — when the manifest is absent, corrupt, or
// lacks any wanted blob, or when a referenced blob is missing or fails
// hash verification. Corrupt files are deleted so the next put repairs
// them. A hit refreshes the manifest's LRU clock.
func (s *Store) GetPhase(key string, want []string) (*PhaseEntry, bool) {
	e, ok := s.get(key, want)
	if !ok {
		s.phaseMisses.Add(1)
		return nil, false
	}
	s.phaseHits.Add(1)
	return e, true
}

// PutPhase stores one phase snapshot: its blobs, then its manifest,
// written whole (an entry's blob set is produced in one shot, so there
// is nothing to merge); concurrent writers of the same key converge
// via the atomic rename.
func (s *Store) PutPhase(key string, e *PhaseEntry) error {
	if err := s.put(key, e); err != nil {
		return err
	}
	s.phasePuts.Add(1)
	return nil
}

// Get reads a root entry: GetPhase for a design manifest, counted
// toward Hits and Misses instead of the phase counters. A manifest of
// another phase is a miss.
func (s *Store) Get(key string, want []string) (*Entry, bool) {
	e, ok := s.get(key, want)
	if !ok || e.Phase != DesignPhase {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return &Entry{Module: e.Module, Artifacts: e.Blobs}, true
}

// Put stores a root entry: PutPhase of a design manifest, counted
// toward Puts.
func (s *Store) Put(key string, e *Entry) error {
	if err := s.put(key, &PhaseEntry{Phase: DesignPhase, Module: e.Module, Blobs: e.Artifacts}); err != nil {
		return err
	}
	s.puts.Add(1)
	return nil
}

// get is GetPhase without the traffic counters.
func (s *Store) get(key string, want []string) (*PhaseEntry, bool) {
	m, ok := s.readManifest(key)
	if !ok {
		return nil, false
	}
	e := &PhaseEntry{Phase: m.Phase, Module: m.Module, Blobs: make(map[string]string, len(want))}
	for _, k := range want {
		hash, ok := m.Blobs[k]
		if !ok {
			return nil, false
		}
		text, ok := s.readBlob(hash)
		if !ok {
			// A missing or corrupt blob invalidates the manifest that
			// references it: drop both so the key rebuilds cleanly.
			os.Remove(s.manifestPath(key))
			return nil, false
		}
		e.Blobs[k] = text
	}
	now := time.Now()
	os.Chtimes(s.manifestPath(key), now, now) // LRU touch; best-effort
	return e, true
}

// put is PutPhase without the traffic counters.
func (s *Store) put(key string, e *PhaseEntry) error {
	if !ValidManifest(e.Phase, e.Module, len(e.Blobs)) {
		return fmt.Errorf("cache: refusing to store incomplete %q entry for %s", e.Phase, key)
	}
	hashes := make(map[string]string, len(e.Blobs))
	for k, text := range e.Blobs {
		h, err := s.WriteBlob(text)
		if err != nil {
			s.errors.Add(1)
			return err
		}
		hashes[k] = h
	}
	return s.writeManifest(key, e.Phase, e.Module, hashes)
}

// PutPhaseManifest writes the key's manifest from blob-name → blob-hash
// references, for callers (the remote cache server) whose blobs arrive
// separately; PutPhase is the blob-writing front end.
func (s *Store) PutPhaseManifest(key, phase, module string, hashes map[string]string) error {
	if err := s.writeManifest(key, phase, module, hashes); err != nil {
		return err
	}
	s.phasePuts.Add(1)
	return nil
}

func (s *Store) writeManifest(key, phase, module string, hashes map[string]string) error {
	if !ValidManifest(phase, module, len(hashes)) {
		return fmt.Errorf("cache: refusing to store incomplete %q manifest for %s", phase, key)
	}
	m := &manifest{Version: PhaseSchemaVersion, Key: key, Phase: phase, Module: module, Blobs: hashes}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := s.writeFileAtomic(s.manifestPath(key), data); err != nil {
		s.errors.Add(1)
		return err
	}
	return nil
}

// PhaseManifest returns a phase key's raw manifest: the producing
// phase, the resolved module (design entries only) and the blob-name →
// blob-hash map.
func (s *Store) PhaseManifest(key string) (phase, module string, blobs map[string]string, ok bool) {
	m, ok := s.readManifest(key)
	if !ok {
		return "", "", nil, false
	}
	return m.Phase, m.Module, m.Blobs, true
}

// SnapshotPhase is the pseudo-phase name session snapshots are filed
// under, and snapshotBlobName the single blob each snapshot manifest
// references. Storing evicted execution sessions as ordinary phase
// entries means they inherit everything the subtree already
// guarantees: hash-verified reads, corrupt-entry repair, LRU GC, and a
// line in the `eclc cache stats` phase inventory.
const (
	SnapshotPhase    = "session-snapshot"
	snapshotBlobName = "snapshot"
)

// PutSnapshot stores a serialized execution-session snapshot (an
// exec.SnapshotBlob encoding) and returns the content-derived key that
// retrieves it.
func (s *Store) PutSnapshot(blob []byte) (string, error) {
	sum := sha256.Sum256(blob)
	key := hex.EncodeToString(sum[:])
	err := s.PutPhase(key, &PhaseEntry{
		Phase: SnapshotPhase,
		Blobs: map[string]string{snapshotBlobName: string(blob)},
	})
	if err != nil {
		return "", err
	}
	return key, nil
}

// GetSnapshot retrieves a snapshot stored by PutSnapshot. Like every
// store read, a missing, corrupt, or truncated entry is a miss, never
// an error.
func (s *Store) GetSnapshot(key string) ([]byte, bool) {
	e, ok := s.GetPhase(key, []string{snapshotBlobName})
	if !ok || e.Phase != SnapshotPhase {
		return nil, false
	}
	return []byte(e.Blobs[snapshotBlobName]), true
}

// PhaseInfo summarizes one pipeline phase's footprint in the store.
type PhaseInfo struct {
	Entries int
	Bytes   int64 // manifest bytes plus referenced blob bytes
}

// PhaseInventory walks the store and groups its entries by the
// pipeline phase that produced them (the `eclc cache stats` table).
// Blobs shared by several manifests of one phase are counted once per
// phase. A design entry's blobs are the emit phases' and are counted
// there, so design entries are charged their manifests only.
func (s *Store) PhaseInventory() (map[string]PhaseInfo, error) {
	out := make(map[string]PhaseInfo)
	seen := make(map[string]map[string]bool) // phase -> blob hash -> counted
	err := s.walkManifests(func(key string, size int64, _ time.Time, m *manifest) {
		info := out[m.Phase]
		info.Entries++
		info.Bytes += size
		if seen[m.Phase] == nil {
			seen[m.Phase] = make(map[string]bool)
		}
		for _, h := range m.Blobs {
			if m.Phase == DesignPhase || seen[m.Phase][h] {
				continue
			}
			seen[m.Phase][h] = true
			if fi, err := os.Stat(s.blobPath(h)); err == nil {
				info.Bytes += fi.Size()
			}
		}
		out[m.Phase] = info
	})
	return out, err
}

// walkManifests calls f for every valid manifest in the store, with its
// key, file size and modification time; corrupt manifests are deleted
// (by readManifest) and skipped.
func (s *Store) walkManifests(f func(key string, size int64, mtime time.Time, m *manifest)) error {
	return filepath.WalkDir(filepath.Join(s.root, "manifests"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		key := d.Name()[:len(d.Name())-len(".json")]
		if m, ok := s.readManifest(key); ok {
			f(key, info.Size(), info.ModTime(), m)
		}
		return nil
	})
}

// Clear removes every manifest and blob (and a legacy v1/ subtree),
// leaving an empty, usable store.
func (s *Store) Clear() error {
	if err := os.RemoveAll(filepath.Join(s.dir, legacySubtree)); err != nil {
		return err
	}
	for _, sub := range []string{"manifests", "blobs", "tmp"} {
		p := filepath.Join(s.root, sub)
		if err := os.RemoveAll(p); err != nil {
			return err
		}
		if err := os.MkdirAll(p, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// Size walks the store and returns its total bytes (manifests plus
// blobs) and entry (manifest) count.
func (s *Store) Size() (bytes int64, entries int, err error) {
	err = filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a file vanishing mid-walk is fine
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		bytes += info.Size()
		if filepath.Ext(path) == ".json" {
			entries++
		}
		return nil
	})
	return bytes, entries, err
}

// ---------------------------------------------------------------------------
// Blob accessors (also the remote cache server's storage API)

// HasBlob reports whether the store holds a blob of the hash (by
// existence; content is verified on read).
func (s *Store) HasBlob(hash string) bool {
	_, err := os.Stat(s.blobPath(hash))
	return err == nil
}

// ReadBlob returns the hash-verified content of one blob; a missing or
// corrupt blob reads as absent (and a corrupt one is deleted).
func (s *Store) ReadBlob(hash string) (string, bool) { return s.readBlob(hash) }

// WriteBlob stores content under its SHA-256 (idempotent: an existing
// blob of the same hash is left alone) and returns the hash.
func (s *Store) WriteBlob(text string) (string, error) {
	sum := sha256.Sum256([]byte(text))
	hash := hex.EncodeToString(sum[:])
	path := s.blobPath(hash)
	if _, err := os.Stat(path); err == nil {
		return hash, nil
	}
	if err := s.writeFileAtomic(path, []byte(text)); err != nil {
		return "", err
	}
	return hash, nil
}

// ---------------------------------------------------------------------------
// Paths and file primitives

func shard(hash string) string {
	if len(hash) < 2 {
		return "xx"
	}
	return hash[:2]
}

func (s *Store) manifestPath(key string) string {
	return filepath.Join(s.root, "manifests", shard(key), key+".json")
}

func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.root, "blobs", shard(hash), hash)
}

// readManifest loads and validates a phase key's manifest, deleting it
// on corruption. Swallowed failures other than plain absence count
// toward the Errors stat.
func (s *Store) readManifest(key string) (*manifest, bool) {
	path := s.manifestPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.errors.Add(1)
		}
		return nil, false
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil || !m.valid(key) {
		s.errors.Add(1)
		os.Remove(path)
		return nil, false
	}
	return &m, true
}

// readBlob loads a blob and verifies its content hash, deleting it on
// mismatch (truncation, garbage, partial write from a crashed
// non-atomic filesystem).
func (s *Store) readBlob(hash string) (string, bool) {
	path := s.blobPath(hash)
	data, err := os.ReadFile(path)
	if err != nil {
		s.errors.Add(1) // a referenced blob should exist and be readable
		return "", false
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != hash {
		s.errors.Add(1)
		os.Remove(path)
		return "", false
	}
	return string(data), true
}

// writeFileAtomic writes via a temp file in tmp/ and renames into
// place, so concurrent readers and crashed writers never expose
// partial content.
func (s *Store) writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "w*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
