package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// TestSnapshotRoundTrip files a session snapshot in the store and
// reads it back under its content-derived key; a corrupted blob must
// come back as a miss (and be repaired), never as bad bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	s := testStore(t)
	blob := []byte(`{"v":1,"backend":"efsm","module":"abro","instant":7,"state":"3"}`)
	key, err := s.PutSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if key != hex.EncodeToString(sum[:]) {
		t.Fatalf("key %s is not the blob's content hash", key)
	}
	got, ok := s.GetSnapshot(key)
	if !ok || string(got) != string(blob) {
		t.Fatalf("GetSnapshot = %q, %v", got, ok)
	}

	// Storing the same blob again is idempotent (same key).
	again, err := s.PutSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if again != key {
		t.Fatalf("re-put key %s != %s", again, key)
	}

	// A snapshot key does not answer as a compile-phase entry and vice
	// versa: the phase name gates retrieval.
	if e, ok := s.GetPhase(key, []string{"snapshot"}); ok && e.Phase != SnapshotPhase {
		t.Fatalf("snapshot entry leaked into phase %q", e.Phase)
	}
	if _, ok := s.GetSnapshot("0000000000000000000000000000000000000000000000000000000000000000"); ok {
		t.Fatal("unknown key hit")
	}

	// Corrupt the stored blob on disk: the hash-verified read must
	// report a miss.
	hash := hex.EncodeToString(sum[:])
	path := s.blobPath(hash)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetSnapshot(key); ok {
		t.Fatalf("corrupt snapshot served: %q", got)
	}
}
