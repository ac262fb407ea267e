package simd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/exec"
)

// Client drives a daemon over HTTP — the library behind
// eclsim -connect.
type Client struct {
	base string
	http *http.Client
}

// Dial validates a daemon URL ("http://host:port") and returns a
// client for it. Like the remote cache's Dial it does not probe the
// daemon; use Healthy for that.
func Dial(rawURL string) (*Client, error) {
	return DialWith(rawURL, &http.Client{Timeout: 5 * time.Minute})
}

// DialWith is Dial with a caller-supplied HTTP client (custom
// timeouts, transports, test doubles).
func DialWith(rawURL string, hc *http.Client) (*Client, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("simd: bad daemon URL %q: %v", rawURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("simd: daemon URL %q must be http or https", rawURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("simd: daemon URL %q has no host", rawURL)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(u.String(), "/"), http: hc}, nil
}

// Healthy reports whether the daemon answers its liveness probe.
func (c *Client) Healthy() bool {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// do runs one JSON exchange: encode in (nil for an empty body), decode
// a 2xx response into out (unless nil), turn anything else into an
// error carrying the server's message.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("simd: encode request: %v", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("simd: %v", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("simd: %s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return errorFromResponse(method, path, resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("simd: %s %s: decode response: %v", method, path, err)
	}
	return nil
}

// errorFromResponse folds a non-2xx response body into an error.
func errorFromResponse(method, path string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 16<<10))
	text := strings.TrimSpace(string(msg))
	if text == "" {
		text = resp.Status
	}
	return fmt.Errorf("simd: %s %s: %s", method, path, text)
}

// Open compiles a design on the daemon and opens a machine over it.
func (c *Client) Open(req OpenRequest) (MachineInfo, error) {
	var info MachineInfo
	err := c.do(http.MethodPost, "/v1/machines", req, &info)
	return info, err
}

// Info describes one machine (evicted sessions included).
func (c *Client) Info(id string) (MachineInfo, error) {
	var info MachineInfo
	err := c.do(http.MethodGet, "/v1/machines/"+url.PathEscape(id), nil, &info)
	return info, err
}

// List returns the daemon's machine ids, sorted.
func (c *Client) List() ([]string, error) {
	var ids []string
	err := c.do(http.MethodGet, "/v1/machines", nil, &ids)
	return ids, err
}

// Fork asks for an independent copy of a machine.
func (c *Client) Fork(src string, req ForkRequest) (MachineInfo, error) {
	var info MachineInfo
	err := c.do(http.MethodPost, "/v1/machines/"+url.PathEscape(src)+"/fork", req, &info)
	return info, err
}

// Reset rewinds a machine to its boot state.
func (c *Client) Reset(id string) error {
	return c.do(http.MethodPost, "/v1/machines/"+url.PathEscape(id)+"/reset", struct{}{}, nil)
}

// Close removes a machine from the daemon.
func (c *Client) Close(id string) error {
	return c.do(http.MethodDelete, "/v1/machines/"+url.PathEscape(id), nil, nil)
}

// Stats fetches the daemon's counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.do(http.MethodGet, "/statsz", nil, &st)
	return st, err
}

// StepEvents runs one batched step exchange: the input instants (trace
// input maps) go up as JSONL, the executed instants come back as
// canonical trace events. On a mid-batch failure the events that did
// execute are returned alongside the error — exactly the semantics of
// exec.Session.StepEvents, stretched over HTTP.
func (c *Client) StepEvents(id string, inputs []map[string]string) ([]exec.Event, error) {
	var body []byte
	for _, in := range inputs {
		body = exec.AppendEvent(body, &exec.Event{Inputs: in})
	}
	path := "/v1/machines/" + url.PathEscape(id) + "/step"
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("simd: %v", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("simd: step %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, errorFromResponse(http.MethodPost, path, resp)
	}
	var events []exec.Event
	lr := lineReader{br: bufio.NewReader(resp.Body)}
	for {
		line, err := lr.next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, fmt.Errorf("simd: step %s: read response: %v", id, err)
		}
		// Event lines are canonical; anything else, the error line
		// included, goes through encoding/json.
		var ev exec.Event
		if !exec.ParseCanonicalEvent(line, &ev) {
			var wev wireEvent
			if err := json.Unmarshal(line, &wev); err != nil {
				return events, fmt.Errorf("simd: step %s: bad response line: %v", id, err)
			}
			if wev.Error != "" {
				return events, fmt.Errorf("simd: step %s: %s", id, wev.Error)
			}
			ev = wev.Event
		}
		if events == nil {
			events = make([]exec.Event, 0, len(inputs))
		}
		events = append(events, ev)
	}
}

// StepAll steps a machine through all input instants in batches of
// batchSize (<=0 means one batch for everything), collecting the
// executed events. Stepping ends early when the machine terminates.
func (c *Client) StepAll(id string, inputs []map[string]string, batchSize int) ([]exec.Event, error) {
	if batchSize <= 0 {
		batchSize = len(inputs)
	}
	var all []exec.Event
	for start := 0; start < len(inputs); start += batchSize {
		end := start + batchSize
		if end > len(inputs) {
			end = len(inputs)
		}
		events, err := c.StepEvents(id, inputs[start:end])
		all = append(all, events...)
		if err != nil {
			return all, err
		}
		if len(events) > 0 && events[len(events)-1].Terminated {
			break
		}
	}
	return all, nil
}
