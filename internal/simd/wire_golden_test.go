package simd

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/driver"
	"repro/internal/exec"
	"repro/internal/paperex"
)

var update = flag.Bool("update", false, "rewrite testdata/step_wire.golden from the current code")

// stepWireGolden holds the raw bytes of every step exchange in
// wireScript: request body, status, Content-Type and response body.
const stepWireGolden = "testdata/step_wire.golden"

// finisSrc terminates: await one go, emit done, end.
const finisSrc = `
module finis (input pure go, output pure done)
{
    await (go);
    emit (done);
}
`

// wireExchange is one recorded step exchange.
type wireExchange struct {
	via    string // "client" (sent by Client.StepEvents) or "raw"
	path   string
	req    []byte
	status int
	ctype  string
	resp   []byte
}

// wireTap records every step exchange that passes through it.
type wireTap struct {
	next http.Handler
	mu   sync.Mutex
	log  []wireExchange
}

func (t *wireTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/step") {
		t.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t.next.ServeHTTP(rec, r)
	// Record before answering: the client reads the log once it has
	// the response.
	t.mu.Lock()
	t.log = append(t.log, wireExchange{
		path: r.URL.Path, req: body, status: rec.Code,
		ctype: rec.Header().Get("Content-Type"), resp: rec.Body.Bytes(),
	})
	t.mu.Unlock()
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// exchanges returns a copy of the log so far.
func (t *wireTap) exchanges() []wireExchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]wireExchange(nil), t.log...)
}

// wireStep is one scripted step request: either input maps sent
// through Client.StepEvents, or a raw body POSTed as is.
type wireStep struct {
	client []map[string]string
	raw    string
}

// wireSession is one machine the script opens, and the requests it
// sends to it.
type wireSession struct {
	name, src, module string
	steps             []wireStep
}

func packetHex(good bool, upper bool) string {
	pkt := paperex.MakePacket(good)
	s := hex.EncodeToString(pkt[:])
	if upper {
		return "0x" + strings.ToUpper(s)
	}
	return "0x" + s
}

// wireScript is the fixed set of step conversations, run on every
// backend in wireBackends: canonical and non-canonical values, idle
// instants, ignored client-supplied fields, case-folded keys, every
// decode error, termination mid-batch and malformed bodies.
func wireScript() []wireSession {
	packet := []map[string]string{{"reset": ""}}
	for _, b := range paperex.MakePacket(true) {
		packet = append(packet, map[string]string{"in_byte": EncodeIntValue(1, int64(b))})
	}
	for i := 0; i < paperex.HdrSize+2; i++ {
		packet = append(packet, map[string]string{})
	}
	return []wireSession{
		{name: "abro", src: paperex.ABRO, steps: []wireStep{
			{client: []map[string]string{{}, {"A": ""}, {"B": ""}, {"R": ""}, {"A": "", "B": ""}}},
			{raw: "{\"i\":7,\"in\":{\"A\":\"\"},\"out\":{\"O\":\"\"}}\n{\"i\":99,\"in\":{\"B\":\"\"},\"term\":true}\n"},
			{raw: "{\"IN\":{\"R\":\"\"}}\n{\"In\":{\"A\":\"\"}}\n{\"in\":{\"\\u0042\":\"\"}}\n"},
			{raw: " { \"in\" : { \"R\" : \"\" } } \n\n\t{}\r\nnull\n{\"i\":0}"},
			{client: []map[string]string{{"R": ""}, {"bogus": ""}, {"A": ""}}},
			{client: []map[string]string{{"A": "0x01"}}},
			{raw: "{\"in\":{\"<b>&\\\"é\":\"\"}}\n"},
			{raw: "{\"in\":{\"A\":\"\"}}\n{\"in\":\n"},
			{raw: "{\"in\":{\"A\":1}}\n"},
			{raw: "{\"in\":{\"A\":\"\"}} {}\n"},
			{client: []map[string]string{{"A": ""}}},
		}},
		{name: "stack", src: paperex.Stack, steps: []wireStep{
			{client: []map[string]string{{"in_byte": "0x7e"}, {}, {"in_byte": "0xAB"}, {"in_byte": "ab"}, {"reset": ""}, {"in_byte": "0x00", "reset": ""}, {"in_byte": ""}}},
			{client: []map[string]string{{}, {"in_byte": "0x0102"}, {}}},
			{client: []map[string]string{{"in_byte": "0xzz"}}},
			{client: []map[string]string{{"in_byte": "0x7"}}},
			{client: []map[string]string{{"reset": "0x01"}}},
			{client: packet},
			{raw: "{\"in\":{\"in_byte\":\"0X7e\"}}\n"},
		}},
		{name: "crc", src: paperex.Stack, module: "checkcrc", steps: []wireStep{
			{client: []map[string]string{{"inpkt": packetHex(true, false)}, {}, {"inpkt": packetHex(false, true)}, {"inpkt": packetHex(true, false), "reset": ""}}},
			{client: []map[string]string{{"inpkt": "0x00"}}},
		}},
		{name: "finis", src: finisSrc, steps: []wireStep{
			{client: []map[string]string{{}, {"go": ""}, {}, {}}},
			{client: []map[string]string{{}, {"go": ""}}},
		}},
	}
}

// wireBackends are the backends every scripted session runs on.
var wireBackends = []string{"efsm", "efsm-table", "interp"}

// runWireScript opens every scripted session on every backend of a
// fresh daemon and sends the script's requests, returning the recorded
// step exchanges. Each Client-sent exchange is checked on the way:
// Client.StepEvents must return what encoding/json makes of the
// response lines.
func runWireScript(t *testing.T) []wireExchange {
	t.Helper()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	drv := driver.New(2)
	drv.Disk = store
	daemon, err := New(Config{Driver: drv, Store: store, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(daemon.Close)
	tap := &wireTap{next: daemon}
	srv := httptest.NewServer(tap)
	t.Cleanup(srv.Close)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	var vias []string
	send := func(id string, st wireStep) {
		if st.client == nil {
			vias = append(vias, "raw")
			resp, err := http.Post(srv.URL+"/v1/machines/"+id+"/step", "application/x-ndjson", strings.NewReader(st.raw))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return
		}
		vias = append(vias, "client")
		events, err := c.StepEvents(id, st.client)
		log := tap.exchanges()
		ex := log[len(log)-1]
		wantEvents, wantErr := referenceDecode(ex)
		if !reflect.DeepEqual(events, wantEvents) {
			t.Errorf("%s: client events %+v, encoding/json reads %+v", ex.path, events, wantEvents)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: client error %v, encoding/json reads %v", ex.path, err, wantErr)
		}
	}
	for _, backend := range wireBackends {
		for _, s := range wireScript() {
			id := s.name + "-" + backend
			if _, err := c.Open(OpenRequest{ID: id, Path: s.name + ".ecl", Source: s.src, Module: s.module, Backend: backend}); err != nil {
				t.Fatalf("open %s: %v", id, err)
			}
			for _, st := range s.steps {
				send(id, st)
			}
		}
	}
	send("nope", wireStep{client: []map[string]string{{}}})
	log := tap.exchanges()
	for i := range log {
		log[i].via = vias[i]
	}
	return log
}

// referenceDecode is what Client.StepEvents should make of a recorded
// response, decoded line by line with encoding/json.
func referenceDecode(ex wireExchange) ([]exec.Event, error) {
	if ex.status/100 != 2 {
		return nil, fmt.Errorf("simd: POST %s: %s", ex.path, strings.TrimSpace(string(ex.resp)))
	}
	id := strings.TrimSuffix(strings.TrimPrefix(ex.path, "/v1/machines/"), "/step")
	var events []exec.Event
	for _, line := range strings.Split(string(ex.resp), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var ev wireEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return events, fmt.Errorf("simd: step %s: bad response line: %v", id, err)
		}
		if ev.Error != "" {
			return events, fmt.Errorf("simd: step %s: %s", id, ev.Error)
		}
		events = append(events, ev.Event)
	}
	return events, nil
}

// formatWire renders exchanges in the golden file's form: a header
// line per body giving its byte count, then the raw bytes and a
// separating newline.
func formatWire(log []wireExchange) []byte {
	var b bytes.Buffer
	b.WriteString("# Raw step exchanges of wireScript (wire_golden_test.go). Each body\n")
	b.WriteString("# follows its header line verbatim; its byte count is the header's\n")
	b.WriteString("# last field. Regenerate: go test ./internal/simd -run TestStepWireGolden -update\n")
	for _, ex := range log {
		fmt.Fprintf(&b, "> %s POST %s %d\n", ex.via, ex.path, len(ex.req))
		b.Write(ex.req)
		b.WriteString("\n")
		fmt.Fprintf(&b, "< %d %q %d\n", ex.status, ex.ctype, len(ex.resp))
		b.Write(ex.resp)
		b.WriteString("\n")
	}
	return b.Bytes()
}

// parseWire reads a golden file back into exchanges.
func parseWire(data []byte) ([]wireExchange, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	body := func(n int) ([]byte, error) {
		buf := make([]byte, n+1)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		if buf[n] != '\n' {
			return nil, fmt.Errorf("body of %d bytes not followed by a newline", n)
		}
		return buf[:n], nil
	}
	var log []wireExchange
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF && line == "" {
			return log, nil
		}
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		var ex wireExchange
		var n int
		if _, err := fmt.Sscanf(line, "> %s POST %s %d\n", &ex.via, &ex.path, &n); err != nil {
			return nil, fmt.Errorf("request header %q: %v", line, err)
		}
		if ex.req, err = body(n); err != nil {
			return nil, err
		}
		line, err = br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		fields := strings.SplitN(strings.TrimSuffix(line, "\n"), " ", 3)
		if len(fields) != 3 || fields[0] != "<" {
			return nil, fmt.Errorf("response header %q", line)
		}
		if ex.status, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("response header %q: %v", line, err)
		}
		rest := fields[2]
		cut := strings.LastIndexByte(rest, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("response header %q", line)
		}
		if ex.ctype, err = strconv.Unquote(rest[:cut]); err != nil {
			return nil, fmt.Errorf("response header %q: %v", line, err)
		}
		if n, err = strconv.Atoi(rest[cut+1:]); err != nil {
			return nil, fmt.Errorf("response header %q: %v", line, err)
		}
		if ex.resp, err = body(n); err != nil {
			return nil, err
		}
		log = append(log, ex)
	}
}

// TestStepWireGolden replays the scripted step conversations and
// requires every byte on the wire to match the recording: the request
// bodies Client.StepEvents writes, and the daemon's status,
// Content-Type and response body for every request, including decode
// errors, 400s and a 404.
func TestStepWireGolden(t *testing.T) {
	got := runWireScript(t)
	if *update {
		if err := os.WriteFile(stepWireGolden, formatWire(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(stepWireGolden)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseWire(data)
	if err != nil {
		t.Fatalf("%s: %v", stepWireGolden, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d exchanges, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.via != w.via || g.path != w.path || !bytes.Equal(g.req, w.req) {
			t.Errorf("exchange %d: request %s %s %q, golden %s %s %q", i, g.via, g.path, g.req, w.via, w.path, w.req)
			continue
		}
		if g.status != w.status || g.ctype != w.ctype || !bytes.Equal(g.resp, w.resp) {
			t.Errorf("exchange %d (%s): response %d %q\n%s\ngolden %d %q\n%s", i, w.path, g.status, g.ctype, g.resp, w.status, w.ctype, w.resp)
		}
	}
}
