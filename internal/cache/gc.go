package cache

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// gcGrace protects very recent orphan blobs (and tmp files) from the
// sweep: a concurrent put writes blobs before its manifest, so a blob
// may legitimately be referenced by no manifest for a moment. Blobs
// that stop being referenced because GC itself evicted their manifest
// are freed immediately — the GC lock is held, and a racing put that
// loses a shared blob just repairs on the next miss.
const gcGrace = time.Hour

// GCResult reports one GC pass.
type GCResult struct {
	// EvictedEntries is the number of manifests removed.
	EvictedEntries int
	// EvictedBlobs is the number of blob files removed.
	EvictedBlobs int
	// FreedBytes is the total size of everything removed.
	FreedBytes int64
	// LiveBytes and LiveEntries describe the store after the pass.
	LiveBytes   int64
	LiveEntries int
}

type gcEntry struct {
	path  string
	size  int64
	mtime time.Time
	blobs map[string]string
}

// GC trims the store to the given bounds using LRU order (a hit
// refreshes a manifest's clock). maxAge > 0 evicts entries unused for
// longer; maxBytes > 0 then evicts least-recently-used entries until
// the store fits. Evicting an entry immediately frees the blobs only
// it referenced; orphan blobs never referenced by any manifest are
// swept too unless very recent (they may belong to an in-flight put).
// Zero bounds skip their respective phase, so GC(0, 0) is just an
// orphan sweep. Every pass also removes a legacy v1/ subtree whole,
// counting the bytes it removed as freed; a failure to remove it does
// not stop the pass, and is returned with the pass's own error.
func (s *Store) GC(maxBytes int64, maxAge time.Duration) (GCResult, error) {
	unlock := s.lock("gc.lock", 5*time.Second)
	defer unlock()

	var res GCResult
	now := time.Now()
	legacy := filepath.Join(s.dir, legacySubtree)
	legacyBytes := treeBytes(legacy)
	legacyErr := removeAll(legacy)
	res.FreedBytes = legacyBytes - treeBytes(legacy)

	// Inventory manifests (dropping corrupt ones) and blobs, and
	// refcount every blob so eviction can free exclusively-owned blobs
	// in O(1).
	var entries []gcEntry
	s.walkManifests(func(key string, size int64, mtime time.Time, m *manifest) {
		entries = append(entries, gcEntry{path: s.manifestPath(key), size: size, mtime: mtime, blobs: m.Blobs})
	})
	blobSize := map[string]int64{}
	blobTime := map[string]time.Time{}
	refs := map[string]int{}
	filepath.WalkDir(filepath.Join(s.root, "blobs"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			blobSize[d.Name()] = info.Size()
			blobTime[d.Name()] = info.ModTime()
		}
		return nil
	})
	for _, e := range entries {
		for _, h := range e.blobs {
			refs[h]++
		}
	}
	// The size phase targets only bytes it could actually reclaim:
	// grace-protected orphan blobs (likely an in-flight put) are
	// excluded from the running total, otherwise one large recent
	// orphan would make the loop evict every live entry without ever
	// reaching the budget.
	total := int64(0)
	for h, sz := range blobSize {
		if refs[h] == 0 && now.Sub(blobTime[h]) < gcGrace {
			continue
		}
		total += sz
	}
	for _, e := range entries {
		total += e.size
	}

	// evict removes one manifest and every blob that thereby becomes
	// unreferenced, keeping the running total exact for the size phase.
	evict := func(e gcEntry) {
		os.Remove(e.path)
		total -= e.size
		res.EvictedEntries++
		res.FreedBytes += e.size
		for _, h := range e.blobs {
			refs[h]--
			if refs[h] > 0 {
				continue
			}
			sz, onDisk := blobSize[h]
			if !onDisk {
				continue
			}
			if os.Remove(s.blobPath(h)) == nil {
				res.EvictedBlobs++
				res.FreedBytes += sz
				total -= sz
				delete(blobSize, h)
			}
		}
	}

	// Oldest first: age eviction, then LRU size trimming.
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	live := entries[:0]
	for _, e := range entries {
		if maxAge > 0 && now.Sub(e.mtime) > maxAge {
			evict(e)
			continue
		}
		live = append(live, e)
	}
	if maxBytes > 0 {
		for len(live) > 0 && total > maxBytes {
			evict(live[0])
			live = live[1:]
		}
	}

	// Sweep orphan blobs — never referenced by any manifest we saw —
	// with the grace window, plus stale tmp files.
	for h, sz := range blobSize {
		if refs[h] > 0 || now.Sub(blobTime[h]) < gcGrace {
			continue
		}
		if os.Remove(s.blobPath(h)) == nil {
			res.EvictedBlobs++
			res.FreedBytes += sz
		}
	}
	filepath.WalkDir(filepath.Join(s.root, "tmp"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil && now.Sub(info.ModTime()) > gcGrace {
			os.Remove(path)
		}
		return nil
	})

	s.evictions.Add(int64(res.EvictedEntries))
	var err error
	res.LiveBytes, res.LiveEntries, err = s.Size()
	return res, errors.Join(legacyErr, err)
}

// removeAll is os.RemoveAll; a variable so tests can make removing the
// legacy subtree fail.
var removeAll = os.RemoveAll

// treeBytes is the total size of the files under dir (0 when dir does
// not exist).
func treeBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
