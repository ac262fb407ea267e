package remote

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/httpjson"
)

// Server serves the remote cache protocol over an ordinary on-disk
// cache.Store — the eclcached binary is a thin main around it. The
// store's own discipline (atomic renames, hash-verified reads, corrupt
// entries repaired as misses) carries over unchanged, so a server
// crash or concurrent writers never corrupt what clients read.
type Server struct {
	store *cache.Store
	mux   *http.ServeMux

	// Protocol-level traffic counters: the handlers read the store
	// through its raw accessors, which bypass Store.GetPhase's own
	// hit/miss counting, so the server keeps the fleet-facing tallies
	// itself.
	manifestGets, manifestHits atomic.Int64
	blobGets, blobHits         atomic.Int64
	manifestPuts, blobPuts     atomic.Int64
}

// ServerStats is the /statsz payload: how the fleet is using this
// server. Hits count requests answered 200; the gap to Gets is misses.
type ServerStats struct {
	ManifestGets, ManifestHits int64
	BlobGets, BlobHits         int64
	ManifestPuts, BlobPuts     int64
	StoreBytes                 int64
	StoreEntries               int
}

// NewServer returns an http.Handler serving the protocol over store.
func NewServer(store *cache.Store) *Server {
	s := &Server{store: store, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		st := ServerStats{
			ManifestGets: s.manifestGets.Load(), ManifestHits: s.manifestHits.Load(),
			BlobGets: s.blobGets.Load(), BlobHits: s.blobHits.Load(),
			ManifestPuts: s.manifestPuts.Load(), BlobPuts: s.blobPuts.Load(),
		}
		st.StoreBytes, st.StoreEntries, _ = store.Size()
		httpjson.Write(w, http.StatusOK, st)
	})
	s.mux.HandleFunc("GET /{version}/blobs/{hash}", s.blobGet)
	s.mux.HandleFunc("HEAD /{version}/blobs/{hash}", s.blobHead)
	s.mux.HandleFunc("PUT /{version}/blobs/{hash}", s.blobPut)
	s.mux.HandleFunc("GET /{version}/manifests/{key}", s.manifestGet)
	s.mux.HandleFunc("PUT /{version}/manifests/{key}", s.manifestPut)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// version reports whether the {version} path segment names the
// store's schema ("v2"); every other version, v1 included, is a bad
// request.
func version(r *http.Request) bool {
	return r.PathValue("version") == "v"+strconv.Itoa(cache.PhaseSchemaVersion)
}

// validID accepts the hex content hashes and build keys the compiler
// produces — and nothing that could traverse the store's paths.
func validID(id string) bool {
	if len(id) < 4 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// pathID validates a route's schema version and its {hash} or {key}
// segment, writing the error response itself when they are bad.
func pathID(w http.ResponseWriter, r *http.Request, name string) (id string, ok bool) {
	id = r.PathValue(name)
	if !version(r) || !validID(id) {
		http.Error(w, "bad schema version or "+name, http.StatusBadRequest)
		return "", false
	}
	return id, true
}

func (s *Server) blobHead(w http.ResponseWriter, r *http.Request) {
	hash, ok := pathID(w, r, "hash")
	if !ok {
		return
	}
	if !s.store.HasBlob(hash) {
		http.Error(w, "no such blob", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) blobGet(w http.ResponseWriter, r *http.Request) {
	hash, ok := pathID(w, r, "hash")
	if !ok {
		return
	}
	s.blobGets.Add(1)
	text, ok := s.store.ReadBlob(hash)
	if !ok {
		http.Error(w, "no such blob", http.StatusNotFound)
		return
	}
	s.blobHits.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	io.WriteString(w, text)
}

func (s *Server) blobPut(w http.ResponseWriter, r *http.Request) {
	hash, ok := pathID(w, r, "hash")
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
	if err != nil {
		http.Error(w, "unreadable body", http.StatusBadRequest)
		return
	}
	// Verify before storing: the blob's name IS its content hash, and a
	// mismatch means a buggy or malicious client.
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != hash {
		http.Error(w, "body does not hash to the requested name", http.StatusBadRequest)
		return
	}
	if _, err := s.store.WriteBlob(string(body)); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.blobPuts.Add(1)
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) manifestGet(w http.ResponseWriter, r *http.Request) {
	key, ok := pathID(w, r, "key")
	if !ok {
		return
	}
	s.manifestGets.Add(1)
	phase, module, blobs, ok := s.store.PhaseManifest(key)
	if !ok {
		http.Error(w, "no such manifest", http.StatusNotFound)
		return
	}
	s.manifestHits.Add(1)
	httpjson.Write(w, http.StatusOK, wireManifest{Phase: phase, Module: module, Blobs: blobs})
}

func (s *Server) manifestPut(w http.ResponseWriter, r *http.Request) {
	key, ok := pathID(w, r, "key")
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
	if err != nil {
		http.Error(w, "unreadable body", http.StatusBadRequest)
		return
	}
	var m wireManifest
	if err := json.Unmarshal(body, &m); err != nil {
		http.Error(w, "bad manifest JSON", http.StatusBadRequest)
		return
	}
	if !cache.ValidManifest(m.Phase, m.Module, len(m.Blobs)) {
		http.Error(w, "incomplete manifest", http.StatusBadRequest)
		return
	}
	// A manifest may only reference blobs the server already holds —
	// clients upload blobs first — so no reader can ever chase a
	// dangling hash.
	for name, hash := range m.Blobs {
		if !validID(hash) {
			http.Error(w, fmt.Sprintf("bad blob hash for %q", name), http.StatusBadRequest)
			return
		}
		if !s.store.HasBlob(hash) {
			http.Error(w, fmt.Sprintf("blob %s for %q not uploaded", hash, name), http.StatusBadRequest)
			return
		}
	}
	if err := s.store.PutPhaseManifest(key, m.Phase, m.Module, m.Blobs); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.manifestPuts.Add(1)
	w.WriteHeader(http.StatusCreated)
}
