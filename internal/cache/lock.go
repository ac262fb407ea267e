package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// lockStale is how old a lock file must be before another process may
// break it (covers crashed holders; cache operations are far faster).
const lockStale = 30 * time.Second

// lockSeq disambiguates locks taken by one process.
var lockSeq atomic.Int64

// writeLockToken writes the holder's token into a freshly created lock
// file. It is a variable so tests can inject write failures (a short
// or failed write must not leave an unreleasable lock behind).
var writeLockToken = func(f *os.File, token string) error {
	_, err := f.WriteString(token)
	return err
}

// lock acquires a best-effort cross-process lock file under the store
// root and returns its release function. It spins (with backoff) up to
// wait, breaking locks older than lockStale; on timeout it proceeds
// without the lock — every critical section it guards is also safe,
// just less efficient, under a lost race thanks to atomic renames.
//
// Each lock file carries its holder's token, and release only removes
// the file while it still holds that token (via an atomic
// rename-aside), so a holder that outlived lockStale and was broken
// cannot delete its successor's live lock.
func (s *Store) lock(name string, wait time.Duration) (unlock func()) {
	path := filepath.Join(s.root, "tmp", name)
	token := fmt.Sprintf("%d-%d", os.Getpid(), lockSeq.Add(1))
	deadline := time.Now().Add(wait)
	backoff := time.Millisecond
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			werr := writeLockToken(f, token)
			cerr := f.Close()
			if werr == nil && cerr == nil {
				return func() { s.unlock(path, token) }
			}
			// A failed or short token write leaves a lock file no one
			// can release (unlock only removes a matching token), which
			// would stall every contender until the stale break. Drop
			// the bad file and retry within the deadline.
			os.Remove(path)
			if time.Now().After(deadline) {
				return func() {}
			}
			time.Sleep(backoff)
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		if info, serr := os.Stat(path); serr == nil && time.Since(info.ModTime()) > lockStale {
			// Break the stale lock by renaming it aside: rename is
			// atomic, so exactly one contender wins the break and a
			// fresh lock taken between the stat and the break is never
			// deleted out from under its holder (a plain Remove could
			// do that).
			stale := fmt.Sprintf("%s.stale.%s", path, token)
			if os.Rename(path, stale) == nil {
				os.Remove(stale)
			}
			continue
		}
		if time.Now().After(deadline) {
			return func() {} // degrade: unlocked but still atomic-rename safe
		}
		time.Sleep(backoff)
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// unlock releases a lock only if this holder still owns it: a holder
// that ran past lockStale and was broken finds its successor's token
// in the file and leaves it alone. (The read-then-remove pair is not
// atomic, but the gap is microseconds while a takeover additionally
// requires the lock to age past lockStale — and even a lost race only
// lets two GC sweeps overlap, which the store's atomic-rename
// discipline already tolerates.)
func (s *Store) unlock(path, token string) {
	data, err := os.ReadFile(path)
	if err == nil && string(data) == token {
		os.Remove(path)
	}
}
