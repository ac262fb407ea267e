package remote

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
)

// startServer spins up a protocol server over a fresh on-disk store.
func startServer(t *testing.T) (*httptest.Server, *cache.Store) {
	t.Helper()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(store))
	t.Cleanup(srv.Close)
	return srv, store
}

func dialT(t *testing.T, url string) *Client {
	t.Helper()
	c, err := Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// key64 builds a valid 64-hex-char key from a short tag.
func key64(tag string) string {
	sum := sha256.Sum256([]byte(tag))
	return hex.EncodeToString(sum[:])
}

// designEntry is a root entry of the given module with one "c" blob.
func designEntry(module, c string) *cache.PhaseEntry {
	return &cache.PhaseEntry{Phase: cache.DesignPhase, Module: module, Blobs: map[string]string{"c": c}}
}

// TestRoundTripDesignEntry is the core contract: a root entry uploaded
// by one client is served, module and blobs byte-identical and
// hash-verified, to another client of the same server — the
// shared-tier story end to end.
func TestRoundTripDesignEntry(t *testing.T) {
	srv, store := startServer(t)
	key := key64("design")
	entry := &cache.PhaseEntry{
		Phase:  cache.DesignPhase,
		Module: "abro",
		Blobs: map[string]string{
			"c":       "int tick(void) { return 1; }\n",
			"esterel": "module ABRO:\nend module\n",
		},
	}

	up := dialT(t, srv.URL)
	if err := up.PutPhase(key, entry); err != nil {
		t.Fatal(err)
	}
	up.Flush()
	if st := up.Stats(); st.Uploads != 1 || st.Errors != 0 {
		t.Fatalf("uploader stats = %+v, want 1 upload, 0 errors", st)
	}

	down := dialT(t, srv.URL)
	got, ok := down.GetPhase(key, []string{"c", "esterel"})
	if !ok {
		t.Fatal("fresh client missed an uploaded entry")
	}
	if got.Phase != cache.DesignPhase || got.Module != entry.Module {
		t.Fatalf("entry = %s/%q, want %s/%q", got.Phase, got.Module, cache.DesignPhase, entry.Module)
	}
	for k, want := range entry.Blobs {
		if got.Blobs[k] != want {
			t.Fatalf("blob %q = %q, want %q", k, got.Blobs[k], want)
		}
	}
	if st := down.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("downloader stats = %+v, want 1 hit", st)
	}
	// The server stored the module with the manifest.
	if got, ok := store.Get(key, []string{"c"}); !ok || got.Module != "abro" {
		t.Fatalf("backing store root entry = %+v, %v", got, ok)
	}

	// A key the server never saw is a plain miss.
	if _, ok := down.GetPhase(key64("never"), []string{"c"}); ok {
		t.Fatal("hit on an absent key")
	}
	// A wanted blob the manifest lacks is a miss, not a partial hit.
	if _, ok := down.GetPhase(key, []string{"c", "vhdl"}); ok {
		t.Fatal("hit despite a missing wanted artifact")
	}
}

// TestRoundTripPhaseEntry: phase snapshots travel the same protocol,
// with no module on the wire.
func TestRoundTripPhaseEntry(t *testing.T) {
	srv, store := startServer(t)
	key := key64("phase")
	entry := &cache.PhaseEntry{Phase: "efsm", Blobs: map[string]string{"efsm": `{"states":3}`}}

	up := dialT(t, srv.URL)
	up.PutPhase(key, entry)
	up.Flush()

	down := dialT(t, srv.URL)
	got, ok := down.GetPhase(key, []string{"efsm"})
	if !ok {
		t.Fatal("fresh client missed an uploaded phase entry")
	}
	if got.Phase != "efsm" || got.Module != "" || got.Blobs["efsm"] != entry.Blobs["efsm"] {
		t.Fatalf("phase entry = %+v, want %+v", got, entry)
	}
	// The server's backing store is an ordinary cache.Store: the entry
	// is directly readable from it.
	if _, ok := store.GetPhase(key, []string{"efsm"}); !ok {
		t.Fatal("backing store cannot read the served phase entry")
	}
}

// TestUploadDedupesBlobs: re-uploading content the server already has
// skips the blob PUT (HEAD short-circuit) but still lands the second
// manifest.
func TestUploadDedupesBlobs(t *testing.T) {
	srv, store := startServer(t)
	c := dialT(t, srv.URL)
	c.PutPhase(key64("k1"), designEntry("m1", "shared artifact body\n"))
	c.PutPhase(key64("k2"), designEntry("m2", "shared artifact body\n"))
	c.Flush()
	if st := c.Stats(); st.Uploads != 2 {
		t.Fatalf("uploads = %d, want 2", st.Uploads)
	}
	if got, ok := store.Get(key64("k1"), []string{"c"}); !ok || got.Module != "m1" {
		t.Fatal("k1 not on server")
	}
	if got, ok := store.Get(key64("k2"), []string{"c"}); !ok || got.Module != "m2" {
		t.Fatal("k2 not on server")
	}
}

// TestServerRejectsLyingBlobPut: a body that does not hash to its URL
// must be refused, so one bad client cannot poison the shared store.
func TestServerRejectsLyingBlobPut(t *testing.T) {
	srv, store := startServer(t)
	hash := key64("claimed-content")
	req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v2/blobs/%s", srv.URL, hash), strings.NewReader("other content"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lying blob PUT got %d, want 400", resp.StatusCode)
	}
	if store.HasBlob(hash) {
		t.Fatal("server stored a blob whose content does not match its hash")
	}
}

// putManifest PUTs a raw manifest body and returns the status code.
func putManifest(t *testing.T, url, body string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServerRejectsDanglingManifest: a manifest referencing a blob the
// server does not hold must be refused, and so must a design manifest
// without its module.
func TestServerRejectsDanglingManifest(t *testing.T) {
	srv, store := startServer(t)
	url := fmt.Sprintf("%s/v2/manifests/%s", srv.URL, key64("k"))
	body := fmt.Sprintf(`{"phase":"design","module":"m","blobs":{"c":"%s"}}`, key64("not-uploaded"))
	if code := putManifest(t, url, body); code != http.StatusBadRequest {
		t.Fatalf("dangling manifest PUT got %d, want 400", code)
	}
	hash, err := store.WriteBlob("uploaded")
	if err != nil {
		t.Fatal(err)
	}
	if code := putManifest(t, url, fmt.Sprintf(`{"phase":"design","blobs":{"c":"%s"}}`, hash)); code != http.StatusBadRequest {
		t.Fatalf("module-less design manifest PUT got %d, want 400", code)
	}
	if code := putManifest(t, url, fmt.Sprintf(`{"phase":"design","module":"m","blobs":{"c":"%s"}}`, hash)); code != http.StatusCreated {
		t.Fatalf("complete design manifest PUT got %d, want 201", code)
	}
}

// TestServerAnswersV1WithBadRequest: the whole-design v1 routes are
// gone; every v1 request is a 400, which an older client reads as a
// miss.
func TestServerAnswersV1WithBadRequest(t *testing.T) {
	srv, store := startServer(t)
	hash, err := store.WriteBlob("content")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPut} {
		for _, path := range []string{"/v1/blobs/" + hash, "/v1/manifests/" + key64("k")} {
			if method == http.MethodHead && strings.Contains(path, "manifests") {
				continue
			}
			req, _ := http.NewRequest(method, srv.URL+path, strings.NewReader(`{"module":"m","artifacts":{"c":"`+hash+`"}}`))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s got %d, want 400", method, path, resp.StatusCode)
			}
		}
	}
}

// TestServerRejectsTraversalIDs: keys and hashes are hex-only, so path
// metacharacters can never reach the store's filesystem layout.
func TestServerRejectsTraversalIDs(t *testing.T) {
	srv, _ := startServer(t)
	for _, path := range []string{
		"/v2/blobs/..%2f..%2fetc", "/v2/manifests/..%2fx", "/v3/blobs/" + key64("x"), "/v2/blobs/UPPER",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("GET %s unexpectedly succeeded", path)
		}
	}
}

// ---------------------------------------------------------------------------
// Fault injection: a hostile or broken server must only ever cost a
// miss — corrupt blobs, 500s, and hangs all degrade, never surface
// wrong artifacts or an error.

// faultClient dials a handler-backed server with a tight timeout so
// hang tests stay fast.
func faultClient(t *testing.T, h http.Handler) *Client {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c, err := DialWith(srv.URL, &http.Client{Timeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// assertMiss drives the read path for a root and a phase entry and
// fails on anything but a miss.
func assertMiss(t *testing.T, c *Client, scenario string) {
	t.Helper()
	if e, ok := c.GetPhase(key64("design"), []string{"c"}); ok {
		t.Fatalf("%s: design GetPhase returned a hit: %+v", scenario, e)
	}
	if e, ok := c.GetPhase(key64("k"), []string{"efsm"}); ok {
		t.Fatalf("%s: GetPhase returned a hit: %+v", scenario, e)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("%s: stats = %+v, want exactly two misses", scenario, st)
	}
}

func TestFaultCorruptBlobsReadAsMisses(t *testing.T) {
	// The server serves valid manifests whose blobs come back as
	// garbage that does not match their hash — the wrong-artifact
	// attack. The client must verify and miss.
	goodHash := key64("good")
	c := faultClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.Contains(r.URL.Path, "/manifests/"):
			fmt.Fprintf(w, `{"phase":"design","module":"m","blobs":{"c":"%[1]s","efsm":"%[1]s"}}`, goodHash)
		case strings.Contains(r.URL.Path, "/blobs/"):
			fmt.Fprint(w, "CORRUPTED GARBAGE, NOT THE CONTENT")
		}
	}))
	assertMiss(t, c, "corrupt blob")
	if c.Stats().Errors == 0 {
		t.Fatal("corruption left no trace in the error counter")
	}
}

func TestFault500sReadAsMisses(t *testing.T) {
	c := faultClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "internal meltdown", http.StatusInternalServerError)
	}))
	assertMiss(t, c, "500s")
}

func TestFaultHangsReadAsMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping timeout test")
	}
	release := make(chan struct{})
	defer close(release)
	c := faultClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hang until the test tears down
	}))
	start := time.Now()
	assertMiss(t, c, "hanging server")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hanging server stalled reads for %v; must time out to a miss", elapsed)
	}
}

func TestFaultCorruptManifestJSONReadsAsMiss(t *testing.T) {
	c := faultClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"module": truncated garbage`)
	}))
	assertMiss(t, c, "corrupt manifest JSON")
}

func TestFaultDeadServerUploadsAreBestEffort(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close() // nothing listens anymore
	c, err := DialWith(url, &http.Client{Timeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PutPhase(key64("k"), designEntry("m", "x")); err != nil {
		t.Fatalf("PutPhase against a dead server must stay best-effort, got %v", err)
	}
	c.Flush()
	if st := c.Stats(); st.Uploads != 0 || st.Errors == 0 {
		t.Fatalf("dead-server stats = %+v, want 0 uploads and recorded errors", st)
	}
}

func TestDialRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "ftp://host/x", "http://", ":::"} {
		if _, err := Dial(bad); err == nil {
			t.Fatalf("Dial(%q) succeeded, want error", bad)
		}
	}
}

// TestStatszCountsProtocolTraffic: /statsz must reflect what the fleet
// actually did — served manifests/blobs and accepted uploads — not sit
// at zero (the store's own counters don't see the raw-accessor path).
func TestStatszCountsProtocolTraffic(t *testing.T) {
	srv, _ := startServer(t)
	key := key64("traffic")
	c := dialT(t, srv.URL)
	c.PutPhase(key, designEntry("m", "body"))
	c.Flush()
	if _, ok := c.GetPhase(key, []string{"c"}); !ok {
		t.Fatal("round trip failed")
	}

	resp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ManifestPuts != 1 || st.BlobPuts != 1 {
		t.Fatalf("statsz puts = %+v, want 1 manifest + 1 blob", st)
	}
	if st.ManifestHits != 1 || st.BlobHits != 1 {
		t.Fatalf("statsz hits = %+v, want 1 manifest + 1 blob", st)
	}
	if st.StoreEntries == 0 || st.StoreBytes == 0 {
		t.Fatalf("statsz store footprint empty: %+v", st)
	}
}
