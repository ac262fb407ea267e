package cache

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// TestLockRetriesAfterFailedTokenWrite is the regression test for the
// ignored token-write error: a failed write used to leave a lock file
// whose token never matched, so unlock refused to remove it and every
// contender stalled until the 30s stale break. The fix removes the bad
// file and retries, so the lock is still acquired — with a token that
// round-trips through unlock.
func TestLockRetriesAfterFailedTokenWrite(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	var fails atomic.Int32
	fails.Store(2)
	orig := writeLockToken
	writeLockToken = func(f *os.File, token string) error {
		if fails.Add(-1) >= 0 {
			return errors.New("injected write failure")
		}
		return orig(f, token)
	}
	defer func() { writeLockToken = orig }()

	start := time.Now()
	unlock := s.lock("regress.lock", 5*time.Second)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("lock took %v; a failed token write must retry, not stall", elapsed)
	}

	// The acquired lock must carry a readable, correct token: a second
	// contender's unlock-by-token discipline depends on it.
	path := filepath.Join(s.root, "tmp", "regress.lock")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("lock file unreadable after acquisition: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("lock file holds an empty token")
	}

	// unlock must recognize its own token and remove the file — the
	// very step the original bug broke.
	unlock()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("lock file survived unlock (stat err=%v): token mismatch regression", err)
	}

	// The lock is immediately re-acquirable without waiting for the
	// stale break.
	start = time.Now()
	unlock2 := s.lock("regress.lock", 5*time.Second)
	defer unlock2()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("re-acquisition took %v; the lock was not cleanly released", elapsed)
	}
}
