// Package remote is the shared cache tier: an HTTP content-addressed
// protocol that lets many machines (a CI fleet, a team) share one
// build-artifact store, so a design compiled anywhere is a cache hit
// everywhere. It has two halves:
//
//   - Server wraps an ordinary on-disk cache.Store as an http.Handler
//     (the eclcached binary is a thin main around it);
//   - Client speaks the protocol and implements cache.Tier, so the
//     pipeline slots it in as a third tier behind memory and the local
//     disk: memory → disk → remote → build, for the root entry and for
//     every phase snapshot alike.
//
// # Protocol
//
// Everything is content-addressed, mirroring the store's on-disk
// schema — blobs by the SHA-256 of their bytes, manifests by phase key:
//
//	GET/HEAD/PUT /v2/blobs/{sha256}      snapshot and artifact bytes
//	GET/PUT      /v2/manifests/{key}     {"phase":p,"module":m,"blobs":{name:sha256}}
//	GET          /healthz                liveness probe
//	GET          /statsz                 protocol traffic and store footprint as JSON
//
// The module field is present on design (root) manifests only. Any
// other schema version in the path, /v1/ included, is answered 400,
// which a client of an older build reads as a miss.
//
// Blob PUTs are verified server-side (body hash must match the URL) and
// blob GETs are re-verified client-side, so neither a corrupt store nor
// a corrupting proxy can ever hand the build wrong artifact bytes — a
// bad body is indistinguishable from a miss. Manifest PUTs are rejected
// unless every referenced blob is already on the server, so a manifest
// can never dangle; the client uploads blobs first.
//
// # Failure model
//
// The remote tier is an optimization, never a dependency: every network
// failure, timeout, non-200, or hash mismatch on the read path degrades
// to a miss (counted in Stats.Errors), and the write path is an
// asynchronous, bounded, best-effort upload queue — a slow or dead
// server costs the build nothing but the configured timeout.
package remote

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
)

// EnvURL is the environment variable naming the default shared cache
// server (the eclc -remote-cache flag's default).
const EnvURL = "ECL_REMOTE_CACHE"

// DefaultTimeout bounds the small control requests (manifest GETs,
// blob HEADs). A hanging server reads as a miss after this long.
const DefaultTimeout = 5 * time.Second

// BlobTimeout bounds blob transfers (GET/PUT bodies), which scale with
// artifact size: a flat control-sized timeout would permanently
// exclude any blob too large for the link speed, silently disabling
// the tier for that design.
const BlobTimeout = 60 * time.Second

// uploadQueueDepth bounds the async upload backlog; beyond it, fresh
// uploads are dropped (best-effort) and counted in Stats.Dropped.
const uploadQueueDepth = 1024

// uploadWorkers is how many uploads run concurrently.
const uploadWorkers = 4

// maxBlobBytes bounds a single transferred blob (client reads and
// server writes); artifacts are source-scale text, so 256 MiB is far
// above anything legitimate.
const maxBlobBytes = 256 << 20

// Stats counts client traffic since Dial. Hits and Misses count
// GetPhase calls, root entries included; Uploads counts manifests
// successfully pushed, Dropped uploads discarded on a full queue, and
// Errors every degraded read or failed upload.
type Stats struct {
	Hits, Misses     int64
	Uploads, Dropped int64
	Errors           int64
}

// Client speaks the remote cache protocol against one server. It
// implements cache.Tier: reads are synchronous (bounded by the HTTP
// client's timeout, any failure is a miss), writes are queued and
// uploaded asynchronously by background workers. A Client is safe for
// concurrent use; Close (or Flush) drains pending uploads.
type Client struct {
	base   string
	hc     *http.Client // control requests: manifests, HEADs
	blobHC *http.Client // blob transfers (longer timeout)

	queue   chan uploadJob
	pending sync.WaitGroup // open upload jobs (for Flush)
	workers sync.WaitGroup // worker goroutines (for Close)

	mu     sync.Mutex
	closed bool

	hits, misses     atomic.Int64
	uploads, dropped atomic.Int64
	errors           atomic.Int64
}

var _ cache.Tier = (*Client)(nil)

// uploadJob is one queued manifest upload (blobs travel with it).
type uploadJob struct {
	key   string
	entry cache.PhaseEntry // blobs by name -> content
}

// Dial returns a client for the server at rawURL (http or https), with
// DefaultTimeout on control requests and BlobTimeout on blob
// transfers. Dialing does not contact the server: an unreachable
// server surfaces as misses, not as a Dial error.
func Dial(rawURL string) (*Client, error) {
	c, err := DialWith(rawURL, &http.Client{Timeout: DefaultTimeout})
	if err != nil {
		return nil, err
	}
	c.blobHC = &http.Client{Timeout: BlobTimeout}
	return c, nil
}

// DialWith is Dial with a caller-supplied http.Client (custom timeout,
// transport, or auth), used for every request including blob
// transfers.
func DialWith(rawURL string, hc *http.Client) (*Client, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("remote: bad cache URL %q: %w", rawURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("remote: cache URL %q must be http or https", rawURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("remote: cache URL %q has no host", rawURL)
	}
	c := &Client{
		base:   strings.TrimRight(u.String(), "/"),
		hc:     hc,
		blobHC: hc,
		queue:  make(chan uploadJob, uploadQueueDepth),
	}
	c.workers.Add(uploadWorkers)
	for i := 0; i < uploadWorkers; i++ {
		go c.uploadLoop()
	}
	return c, nil
}

// URL returns the server base URL the client was dialed with.
func (c *Client) URL() string { return c.base }

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Uploads: c.uploads.Load(),
		Dropped: c.dropped.Load(),
		Errors:  c.errors.Load(),
	}
}

// Flush blocks until every queued upload has been attempted (not
// necessarily succeeded — uploads stay best-effort).
func (c *Client) Flush() { c.pending.Wait() }

// Close flushes pending uploads and stops the workers. The client's
// read path keeps working after Close; further PutPhase calls are
// dropped.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.pending.Wait()
	close(c.queue)
	c.workers.Wait()
}

// ---------------------------------------------------------------------------
// Read path (synchronous; every failure is a miss)

// wireManifest is a manifest body on the wire.
type wireManifest struct {
	Phase  string            `json:"phase"`
	Module string            `json:"module,omitempty"`
	Blobs  map[string]string `json:"blobs"`
}

// GetPhase fetches a phase key's manifest and the wanted blobs,
// hash-verifying each. Any failure — network, non-200, corrupt body,
// an incomplete manifest — is a miss.
func (c *Client) GetPhase(key string, want []string) (*cache.PhaseEntry, bool) {
	var m wireManifest
	if !c.getJSON(c.manifestURL(key), &m) || !cache.ValidManifest(m.Phase, m.Module, len(m.Blobs)) {
		c.misses.Add(1)
		return nil, false
	}
	e := &cache.PhaseEntry{Phase: m.Phase, Module: m.Module, Blobs: make(map[string]string, len(want))}
	for _, k := range want {
		hash, ok := m.Blobs[k]
		if !ok {
			c.misses.Add(1)
			return nil, false
		}
		text, ok := c.getBlob(hash)
		if !ok {
			c.misses.Add(1)
			return nil, false
		}
		e.Blobs[k] = text
	}
	c.hits.Add(1)
	return e, true
}

// getJSON fetches and decodes one manifest; false is a miss. A plain
// 404 is an expected miss; everything else counts an error too.
func (c *Client) getJSON(u string, out any) bool {
	resp, err := c.hc.Get(u)
	if err != nil {
		c.errors.Add(1)
		return false
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotFound {
		return false
	}
	if resp.StatusCode != http.StatusOK {
		c.errors.Add(1)
		return false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes))
	if err != nil {
		c.errors.Add(1)
		return false
	}
	if err := json.Unmarshal(body, out); err != nil {
		c.errors.Add(1)
		return false
	}
	return true
}

// getBlob fetches one blob and verifies its SHA-256 against the
// requested hash, so a corrupt server or path can never substitute
// wrong content — it reads as a miss.
func (c *Client) getBlob(hash string) (string, bool) {
	resp, err := c.blobHC.Get(c.blobURL(hash))
	if err != nil {
		c.errors.Add(1)
		return "", false
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode != http.StatusNotFound {
			c.errors.Add(1)
		}
		return "", false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes))
	if err != nil {
		c.errors.Add(1)
		return "", false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != hash {
		c.errors.Add(1)
		return "", false
	}
	return string(body), true
}

func (c *Client) blobURL(hash string) string {
	return fmt.Sprintf("%s/v%d/blobs/%s", c.base, cache.PhaseSchemaVersion, hash)
}

func (c *Client) manifestURL(key string) string {
	return fmt.Sprintf("%s/v%d/manifests/%s", c.base, cache.PhaseSchemaVersion, url.PathEscape(key))
}

// drain discards and closes a response body so the underlying
// connection is reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxBlobBytes))
	resp.Body.Close()
}

// ---------------------------------------------------------------------------
// Write path (asynchronous, bounded, best-effort)

// PutPhase queues one phase snapshot for upload and returns
// immediately; call Flush (or Close) to wait for the queue to drain. A
// full queue drops the upload. The returned error is always nil —
// uploads are best-effort by contract.
func (c *Client) PutPhase(key string, e *cache.PhaseEntry) error {
	c.enqueue(uploadJob{key: key, entry: cache.PhaseEntry{Phase: e.Phase, Module: e.Module, Blobs: copyMap(e.Blobs)}})
	return nil
}

func copyMap(m map[string]string) map[string]string {
	cp := make(map[string]string, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

func (c *Client) enqueue(job uploadJob) {
	if !cache.ValidManifest(job.entry.Phase, job.entry.Module, len(job.entry.Blobs)) {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.dropped.Add(1)
		return
	}
	c.pending.Add(1)
	c.mu.Unlock()
	select {
	case c.queue <- job:
	default:
		c.pending.Done()
		c.dropped.Add(1)
		c.errors.Add(1)
	}
}

func (c *Client) uploadLoop() {
	defer c.workers.Done()
	for job := range c.queue {
		c.upload(job)
		c.pending.Done()
	}
}

// upload pushes one manifest and its blobs: HEAD each blob to skip
// content the server already has (the content-addressed win), PUT the
// missing ones, then PUT the manifest referencing them.
func (c *Client) upload(job uploadJob) {
	hashes := make(map[string]string, len(job.entry.Blobs))
	for name, text := range job.entry.Blobs {
		sum := sha256.Sum256([]byte(text))
		hash := hex.EncodeToString(sum[:])
		if !c.headOK(c.blobURL(hash)) {
			if !c.putBody(c.blobHC, c.blobURL(hash), "application/octet-stream", []byte(text)) {
				c.errors.Add(1)
				return
			}
		}
		hashes[name] = hash
	}
	body, err := json.Marshal(wireManifest{Phase: job.entry.Phase, Module: job.entry.Module, Blobs: hashes})
	if err != nil {
		c.errors.Add(1)
		return
	}
	if !c.putBody(c.hc, c.manifestURL(job.key), "application/json", body) {
		c.errors.Add(1)
		return
	}
	c.uploads.Add(1)
}

func (c *Client) headOK(u string) bool {
	resp, err := c.hc.Head(u)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == http.StatusOK
}

func (c *Client) putBody(hc *http.Client, u, contentType string, body []byte) bool {
	req, err := http.NewRequest(http.MethodPut, u, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusNoContent
}
