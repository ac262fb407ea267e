package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func entry(module string, kv ...string) *Entry {
	e := &Entry{Module: module, Artifacts: map[string]string{}}
	for i := 0; i < len(kv); i += 2 {
		e.Artifacts[kv[i]] = kv[i+1]
	}
	return e
}

func TestPutGetRoundTrip(t *testing.T) {
	s := testStore(t)
	if err := s.Put("k1", entry("mod", "c", "int main(){}", "esterel", "module mod:")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1", []string{"c", "esterel"})
	if !ok {
		t.Fatal("expected hit")
	}
	if got.Module != "mod" || got.Artifacts["c"] != "int main(){}" || got.Artifacts["esterel"] != "module mod:" {
		t.Fatalf("got %+v", got)
	}
	if _, ok := s.Get("k1", []string{"c", "verilog"}); ok {
		t.Fatal("missing artifact must miss")
	}
	if _, ok := s.Get("other", []string{"c"}); ok {
		t.Fatal("unknown key must miss")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDesignManifest: a root entry is an ordinary phase manifest that
// records its module, and it must name one — a design entry without a
// module is refused on write and, written by hand, reads as a corrupt
// manifest. Get and Put read and write the same entry through their
// own counters.
func TestDesignManifest(t *testing.T) {
	s := testStore(t)
	if err := s.PutPhase("k", &PhaseEntry{Phase: DesignPhase, Blobs: map[string]string{"c": "CC"}}); err == nil {
		t.Fatal("design entry without a module was stored")
	}
	if err := s.PutPhase("k", &PhaseEntry{Phase: DesignPhase, Module: "m", Blobs: map[string]string{"c": "CC"}}); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k", []string{"c"}); !ok || got.Module != "m" || got.Artifacts["c"] != "CC" {
		t.Fatalf("Get of a design manifest = %+v, %v", got, ok)
	}
	if err := s.PutPhase("e", &PhaseEntry{Phase: "emit-c", Blobs: map[string]string{"text": "CC"}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("e", []string{"text"}); ok {
		t.Fatal("Get served an emit-phase manifest as a root entry")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Puts != 0 || st.PhasePuts != 2 || st.PhaseHits+st.PhaseMisses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The blob both entries reference is charged to the emit phase.
	inv, err := s.PhaseInventory()
	fi, serr := os.Stat(s.manifestPath("k"))
	if err != nil || serr != nil || inv[DesignPhase].Entries != 1 || inv[DesignPhase].Bytes != fi.Size() {
		t.Fatalf("design inventory = %+v (%v, %v), want one entry of its manifest's bytes", inv[DesignPhase], err, serr)
	}
	if err := os.WriteFile(s.manifestPath("k"), []byte(`{"version":2,"key":"k","phase":"design","blobs":{"c":"x"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetPhase("k", []string{"c"}); ok {
		t.Fatal("design manifest without a module read as a hit")
	}
}

func TestReopenSurvivesProcessBoundary(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", entry("m", "c", "text")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir) // a second Store simulates a fresh process
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("k", []string{"c"}); !ok || got.Artifacts["c"] != "text" {
		t.Fatalf("reopened store missed: %+v ok=%v", got, ok)
	}
}

// ---------------------------------------------------------------------------
// Corruption: truncated or garbage manifests and blobs must read as
// misses and be repaired by the next Put — never a panic or an error.

func TestCorruptManifestIsMissAndRepaired(t *testing.T) {
	for _, junk := range []string{"", "{", "garbage", `{"version":999,"key":"k","module":"m","artifacts":{"c":"x"}}`, `{"version":1,"key":"WRONG","module":"m","artifacts":{"c":"x"}}`} {
		s := testStore(t)
		if err := s.Put("k", entry("m", "c", "text")); err != nil {
			t.Fatal(err)
		}
		path := s.manifestPath("k")
		if err := os.WriteFile(path, []byte(junk), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("k", []string{"c"}); ok {
			t.Fatalf("junk manifest %q must miss", junk)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("junk manifest %q not deleted", junk)
		}
		if err := s.Put("k", entry("m", "c", "text")); err != nil {
			t.Fatalf("repair Put: %v", err)
		}
		if got, ok := s.Get("k", []string{"c"}); !ok || got.Artifacts["c"] != "text" {
			t.Fatalf("after repair: %+v ok=%v", got, ok)
		}
	}
}

func TestCorruptBlobIsMissAndRepaired(t *testing.T) {
	for _, mutate := range []func(string) error{
		func(p string) error { return os.WriteFile(p, []byte("garbage"), 0o644) }, // wrong content
		func(p string) error { return os.Truncate(p, 3) },                         // truncated
		os.Remove, // missing
	} {
		s := testStore(t)
		if err := s.Put("k", entry("m", "c", "the artifact text")); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte("the artifact text"))
		blob := s.blobPath(hex.EncodeToString(sum[:]))
		if err := mutate(blob); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("k", []string{"c"}); ok {
			t.Fatal("corrupt blob must miss")
		}
		// The manifest referencing the bad blob must be gone too, so a
		// fresh Put fully repairs the key.
		if _, err := os.Stat(s.manifestPath("k")); !os.IsNotExist(err) {
			t.Fatal("manifest referencing corrupt blob not invalidated")
		}
		if err := s.Put("k", entry("m", "c", "the artifact text")); err != nil {
			t.Fatalf("repair Put: %v", err)
		}
		if got, ok := s.Get("k", []string{"c"}); !ok || got.Artifacts["c"] != "the artifact text" {
			t.Fatalf("after repair: %+v ok=%v", got, ok)
		}
	}
}

// ---------------------------------------------------------------------------
// GC

func TestGCMaxAge(t *testing.T) {
	s := testStore(t)
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), entry("m", "c", fmt.Sprintf("text%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Age two entries past the cutoff.
	old := time.Now().Add(-48 * time.Hour)
	for _, k := range []string{"k0", "k1"} {
		if err := os.Chtimes(s.manifestPath(k), old, old); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.GC(0, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.EvictedEntries != 2 {
		t.Fatalf("evicted %d entries, want 2", res.EvictedEntries)
	}
	for _, k := range []string{"k0", "k1"} {
		if _, ok := s.Get(k, []string{"c"}); ok {
			t.Fatalf("%s survived age GC", k)
		}
	}
	for _, k := range []string{"k2", "k3"} {
		if _, ok := s.Get(k, []string{"c"}); !ok {
			t.Fatalf("%s wrongly evicted", k)
		}
	}
}

// TestGCGoesOnWhenLegacyRemovalFails: a legacy v1/ subtree that cannot
// be removed does not stop the pass. The aged entry is still evicted,
// the error is returned, and only bytes actually removed count as
// freed; the next pass that can remove v1/ does.
func TestGCGoesOnWhenLegacyRemovalFails(t *testing.T) {
	s := testStore(t)
	for _, k := range []string{"k0", "k1"} {
		if err := s.Put(k, entry("m", "c", "text "+k)); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.manifestPath("k0"), old, old); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(s.Dir(), "v1", "manifests", "ab", "abcd.json")
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	aged, err := os.Stat(s.manifestPath("k0"))
	if err != nil {
		t.Fatal(err)
	}
	blob := sha256.Sum256([]byte("text k0"))

	denied := fmt.Errorf("v1 busy")
	removeAll = func(string) error { return denied }
	res, err := s.GC(0, 24*time.Hour)
	removeAll = os.RemoveAll
	if !errors.Is(err, denied) {
		t.Errorf("GC error %v, want the removal's", err)
	}
	if want := aged.Size() + int64(len("text k0")); res.EvictedEntries != 1 || res.FreedBytes != want {
		t.Errorf("GC evicted %d entries freeing %d bytes, want the aged entry's 1 and %d", res.EvictedEntries, res.FreedBytes, want)
	}
	if _, err := os.Stat(s.blobPath(hex.EncodeToString(blob[:]))); !os.IsNotExist(err) {
		t.Errorf("aged entry's blob survived (stat: %v)", err)
	}
	if _, ok := s.Get("k1", []string{"c"}); !ok {
		t.Error("fresh entry evicted")
	}

	res, err = s.GC(0, 0)
	if err != nil || res.FreedBytes != 3 {
		t.Errorf("second GC freed %d bytes (%v), want v1/'s 3", res.FreedBytes, err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "v1")); !os.IsNotExist(err) {
		t.Errorf("v1/ survived the second GC (stat: %v)", err)
	}
}

func TestGCMaxBytesEvictsLRUAndSweepsBlobs(t *testing.T) {
	s := testStore(t)
	big := strings.Repeat("x", 4096)
	for i := 0; i < 6; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), entry("m", "c", big+fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		// Distinct, strictly increasing LRU stamps (filesystem mtime
		// granularity can be coarse), and old enough to clear gcGrace.
		ts := time.Now().Add(-2*time.Hour + time.Duration(i)*time.Minute)
		if err := os.Chtimes(s.manifestPath(fmt.Sprintf("k%d", i)), ts, ts); err != nil {
			t.Fatal(err)
		}
		blobHash := sha256.Sum256([]byte(big + fmt.Sprint(i)))
		bp := s.blobPath(hex.EncodeToString(blobHash[:]))
		if err := os.Chtimes(bp, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.GC(3*4200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.EvictedEntries == 0 || res.EvictedBlobs == 0 {
		t.Fatalf("GC evicted nothing: %+v", res)
	}
	if res.LiveBytes > 3*4200 {
		t.Fatalf("store still %d bytes after GC to %d", res.LiveBytes, 3*4200)
	}
	// The survivors must be the most recently used keys.
	if _, ok := s.Get("k5", []string{"c"}); !ok {
		t.Fatal("most recent entry k5 evicted before older ones")
	}
	if _, ok := s.Get("k0", []string{"c"}); ok {
		t.Fatal("least recent entry k0 survived size GC")
	}
	if s.Stats().Evictions != int64(res.EvictedEntries) {
		t.Fatalf("evictions counter %d != %d", s.Stats().Evictions, res.EvictedEntries)
	}
}

// TestGCMaxBytesOnFreshStore is the CI trim scenario: a store
// populated seconds ago must still actually shrink under its byte
// budget — blobs freed by evicting their manifests are reclaimed
// immediately (the orphan grace window only protects blobs that never
// had a manifest).
func TestGCMaxBytesOnFreshStore(t *testing.T) {
	s := testStore(t)
	big := strings.Repeat("y", 8192)
	for i := 0; i < 6; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), entry("m", "c", big+fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.GC(2*8500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveBytes > 2*8500 {
		t.Fatalf("fresh store still %d bytes after GC to %d (evicted %d entries, %d blobs)",
			res.LiveBytes, 2*8500, res.EvictedEntries, res.EvictedBlobs)
	}
	if res.EvictedBlobs == 0 {
		t.Fatal("size trim freed no blob bytes")
	}
}

// TestGCAgePhaseFreesBlobBytes: bytes freed by the age phase must not
// be double-counted against the size budget (which would over-evict
// fresh entries).
func TestGCAgePhaseFreesBlobBytes(t *testing.T) {
	s := testStore(t)
	big := strings.Repeat("z", 8192)
	// Two old entries (~16K of blobs) and two fresh ones (~16K).
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), entry("m", "c", big+fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-48 * time.Hour)
	for _, k := range []string{"k0", "k1"} {
		os.Chtimes(s.manifestPath(k), old, old)
	}
	// Budget fits the two fresh entries comfortably once the old ones
	// are age-evicted; a stale running total would evict k2 as well.
	res, err := s.GC(3*8500, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.EvictedEntries != 2 {
		t.Fatalf("evicted %d entries, want only the 2 aged ones", res.EvictedEntries)
	}
	for _, k := range []string{"k2", "k3"} {
		if _, ok := s.Get(k, []string{"c"}); !ok {
			t.Fatalf("fresh entry %s over-evicted by stale size accounting", k)
		}
	}
}

func TestGCKeepsSharedBlobs(t *testing.T) {
	s := testStore(t)
	// Two keys share identical artifact content (one blob).
	for _, k := range []string{"a", "b"} {
		if err := s.Put(k, entry("m", "c", "shared text")); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-48 * time.Hour)
	os.Chtimes(s.manifestPath("a"), old, old)
	if _, err := s.GC(0, 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("b", []string{"c"}); !ok || got.Artifacts["c"] != "shared text" {
		t.Fatal("blob shared with a live manifest was swept")
	}
}

// ---------------------------------------------------------------------------
// Concurrency

// TestConcurrentHammer pounds one store from many goroutines (run
// under -race in CI): mixed Put/Get/GC traffic over a small key space,
// with periodic corruption injected, must never panic or return a
// wrong artifact.
func TestConcurrentHammer(t *testing.T) {
	dir := t.TempDir()
	const keys = 8
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := Open(dir)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key%d", (w+i)%keys)
				want := "artifact for " + k
				switch i % 5 {
				case 0:
					if err := s.Put(k, entry("m", "c", want)); err != nil {
						t.Errorf("put %s: %v", k, err)
					}
				case 3:
					if w == 0 && i%40 == 3 {
						s.GC(1<<20, 0)
					}
				case 4:
					if w == 1 && i%50 == 4 { // inject corruption mid-flight
						os.WriteFile(s.manifestPath(k), []byte("junk"), 0o644)
					}
				default:
					if got, ok := s.Get(k, []string{"c"}); ok && got.Artifacts["c"] != want {
						t.Errorf("wrong artifact for %s: %q", k, got.Artifacts["c"])
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTwoProcessHammer runs the same mixed workload in two real child
// processes sharing one cache directory, then verifies every key reads
// back correctly. This is the cross-process crash-safety contract:
// atomic renames mean a reader never sees a partial file.
func TestTwoProcessHammer(t *testing.T) {
	if os.Getenv("ECL_CACHE_HAMMER_CHILD") != "" {
		hammerChild(t)
		return
	}
	if testing.Short() {
		t.Skip("short mode: skipping subprocess test")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no test executable: %v", err)
	}
	var procs []*exec.Cmd
	for i := 0; i < 2; i++ {
		cmd := exec.Command(exe, "-test.run", "^TestTwoProcessHammer$", "-test.v")
		cmd.Env = append(os.Environ(),
			"ECL_CACHE_HAMMER_CHILD=1",
			"ECL_CACHE_HAMMER_DIR="+dir,
			fmt.Sprintf("ECL_CACHE_HAMMER_SEED=%d", i))
		out := &strings.Builder{}
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
		t.Cleanup(func() {
			if s := out.String(); strings.Contains(s, "FAIL") {
				t.Log(s)
			}
		})
	}
	for _, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("child failed: %v", err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("key%d", i)
		if got, ok := s.Get(k, []string{"c"}); ok {
			hits++
			if got.Artifacts["c"] != "artifact for "+k {
				t.Errorf("wrong artifact for %s: %q", k, got.Artifacts["c"])
			}
		}
	}
	if hits == 0 {
		t.Fatal("no keys survived the two-process hammer")
	}
}

// hammerChild is the subprocess body of TestTwoProcessHammer.
func hammerChild(t *testing.T) {
	dir := os.Getenv("ECL_CACHE_HAMMER_DIR")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seed := os.Getenv("ECL_CACHE_HAMMER_SEED")
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key%d", i%8)
		want := "artifact for " + k
		switch i % 3 {
		case 0:
			if err := s.Put(k, entry("m", "c", want)); err != nil {
				t.Errorf("seed %s put %s: %v", seed, k, err)
			}
		case 1:
			if got, ok := s.Get(k, []string{"c"}); ok && got.Artifacts["c"] != want {
				t.Errorf("seed %s: wrong artifact for %s: %q", seed, k, got.Artifacts["c"])
			}
		default:
			if i%60 == 2 {
				s.GC(1<<20, 0)
			}
		}
	}
}

func TestClear(t *testing.T) {
	s := testStore(t)
	if err := s.Put("k", entry("m", "c", "text")); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k", []string{"c"}); ok {
		t.Fatal("entry survived Clear")
	}
	if err := s.Put("k", entry("m", "c", "text")); err != nil {
		t.Fatalf("store unusable after Clear: %v", err)
	}
	bytes, entries, err := s.Size()
	if err != nil || entries != 1 || bytes == 0 {
		t.Fatalf("Size = %d bytes, %d entries, %v", bytes, entries, err)
	}
}

func TestDefaultDirEnvOverride(t *testing.T) {
	t.Setenv(EnvDir, filepath.Join(t.TempDir(), "custom"))
	dir, err := DefaultDir()
	if err != nil {
		t.Fatal(err)
	}
	if dir != os.Getenv(EnvDir) {
		t.Fatalf("DefaultDir = %s, want $%s", dir, EnvDir)
	}
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != dir {
		t.Fatalf("Open(\"\") rooted at %s, want %s", s.Dir(), dir)
	}
}
