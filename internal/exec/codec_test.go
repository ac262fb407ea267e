package exec

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cval"
	"repro/internal/paperex"
)

var update = flag.Bool("update", false, "rewrite testdata/trace.golden from the current code")

// traceGolden is Trace.Encode's output for goldenTrace.
const traceGolden = "testdata/trace.golden"

// goldenTrace records the stack on efsm-table through a good and a
// corrupted packet, then checkcrc's valued outputs on interp, and adds
// hand-made events whose names and values need every kind of JSON
// escaping.
func goldenTrace(t *testing.T) *Trace {
	t.Helper()
	var instants []map[string]cval.Value
	top := buildDesign(t, "stack.ecl", paperex.Stack, "toplevel")
	m, err := Open("efsm-table", top)
	if err != nil {
		t.Fatal(err)
	}
	var byteType = m.Inputs()[1].Type
	for _, good := range []bool{true, false} {
		pkt := paperex.MakePacket(good)
		for _, b := range pkt {
			instants = append(instants, map[string]cval.Value{"in_byte": cval.FromInt(byteType, int64(b))})
		}
		for i := 0; i < paperex.HdrSize+2; i++ {
			instants = append(instants, nil)
		}
	}
	tr, err := Record(m, instants)
	if err != nil {
		t.Fatal(err)
	}

	crc := buildDesign(t, "stack.ecl", paperex.Stack, "checkcrc")
	cm, err := Open("interp", crc)
	if err != nil {
		t.Fatal(err)
	}
	pktType := cm.Inputs()[1].Type
	var crcIn []map[string]cval.Value
	for _, good := range []bool{true, false} {
		pkt := paperex.MakePacket(good)
		crcIn = append(crcIn, map[string]cval.Value{"inpkt": {Type: pktType, B: pkt[:]}}, nil)
	}
	crcTrace, err := Record(cm, crcIn)
	if err != nil {
		t.Fatal(err)
	}
	tr.Events = append(tr.Events, crcTrace.Events...)

	tr.Events = append(tr.Events,
		Event{Instant: len(tr.Events), Terminated: true},
		Event{Instant: -1, Inputs: map[string]string{"<b>": "&amp;", `q"uote`: `back\slash`, "tab\there": "\x00\x1f\x7f"}},
		Event{Instant: 1 << 40, Outputs: map[string]string{"é": "ünï", "\u2028": "\u2029", "bad\xffutf8": "\xc3"}},
		Event{Inputs: map[string]string{"z": "", "a": "", "M": "0x00"}, Outputs: map[string]string{"": ""}, Terminated: true},
	)
	return tr
}

// TestTraceEncodeGolden pins Trace.Encode's bytes (the files eclsim
// -trace writes) and checks that ReadTrace reads them back to the same
// trace.
func TestTraceEncodeGolden(t *testing.T) {
	tr := goldenTrace(t)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(traceGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Trace.Encode differs from %s:\n%s", traceGolden, buf.Bytes())
	}
	back, err := ReadTrace(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != tr.Version || back.Module != tr.Module || back.Backend != tr.Backend {
		t.Fatalf("header read back as %+v", back)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("read back %d events, want %d", len(back.Events), len(tr.Events))
	}
	var again bytes.Buffer
	if err := back.Encode(&again); err != nil {
		t.Fatal(err)
	}
	// Invalid UTF-8 is encoded as \ufffd, which reads back as U+FFFD
	// and then encodes raw, so those lines cannot round-trip.
	gotLines, wantLines := bytes.Split(again.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range wantLines {
		if !bytes.Contains(wantLines[i], []byte(`\ufffd`)) && !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d reads back and encodes as %s, want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// codecSeeds are the fuzz seed lines: canonical lines and every way a
// line can leave the canonical form.
var codecSeeds = []string{
	`{"i":0}`,
	`{"i":3,"in":{"in_byte":"0x7e","reset":""},"out":{"addr_match":""},"term":true}`,
	`{"term":true,"out":{"O":""},"in":{"A":""},"i":12}`,
	` { "i" : 7 , "in" : { "A" : "" , "B" : "0x01" } } `,
	"\t{}\r\n",
	`{}`,
	`{"in":{}}`,
	`{"out":{},"term":false}`,
	`{"i":0,"error":"machine \"m0\" instant 3: unknown input \"bogus\""}`,
	`{"in":{"A":""}}`,
	`{"in":{"A":" "}}`,
	`{"in":{"é":"ü"}}`,
	`{"ın":{"A":""}}`,
	`{"IN":{"A":""}}`,
	`{"Term":true}`,
	`{"in":{"A":""},"in":{"B":""}}`,
	`{"i":1,"i":2}`,
	`{"in":{"A":"","A":"0x01"}}`,
	`null`,
	`{"in":null}`,
	`{"term":null}`,
	`{"i":01}`,
	`{"i":-1}`,
	`{"i":-0}`,
	`{"i":1.0}`,
	`{"i":1e2}`,
	`{"i":123456789012345678}`,
	`{"i":1234567890123456789}`,
	`{"i":9223372036854775808}`,
	`{"i":99999999999999999999}`,
	`{"i":"1"}`,
	`{"in":{"A":1}}`,
	`{"in":["A"]}`,
	`{"in":{"A":""}} {}`,
	`{"i":0}x`,
	`{"i":0,}`,
	`{"in":{"A":"",}}`,
	`{"in":{"<b>":"&amp;"}}`,
	"{\"in\":{\"A\":\"\x7f\"}}",
	"{\"in\":{\"A\":\"\xff\"}}",
	"{\"in\":{\"A\":\"\x01\"}}",
	`{"term":truex}`,
	`{"term":tru}`,
	`[]`,
	``,
	`{"in":{"inpkt":"0x` + strings.Repeat("0123456789abcdef", 512) + `"}}`,
}

// FuzzEventCodec checks the event codec against encoding/json: for any
// line ParseEvent must agree with json.Unmarshal on the Event and the
// error, a line ParseCanonicalEvent accepts must be one json.Unmarshal
// reads the same way, and AppendEvent must write what json.Encoder
// writes — for the decoded Event and for one holding the line itself as
// a name and a value.
func FuzzEventCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	golden, err := os.ReadFile(traceGolden)
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(golden, []byte("\n"))[1:] {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Event
		wantErr := json.Unmarshal(line, &want)
		got := Event{Instant: 5, Inputs: map[string]string{"stale": ""}}
		gotErr := ParseEvent(line, &got)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: ParseEvent error %v, json.Unmarshal %v", line, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: ParseEvent %#v, json.Unmarshal %#v", line, got, want)
		}
		var canon Event
		if ParseCanonicalEvent(line, &canon) && (wantErr != nil || !reflect.DeepEqual(canon, want)) {
			t.Fatalf("%q: ParseCanonicalEvent accepted %#v, json.Unmarshal reads %#v, %v", line, canon, want, wantErr)
		}
		s := string(line)
		for _, ev := range []Event{got, {Instant: -len(s), Inputs: map[string]string{s: s, "": ""}, Outputs: map[string]string{s + "x": s}}} {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(ev); err != nil {
				t.Fatal(err)
			}
			if enc := AppendEvent(nil, &ev); !bytes.Equal(enc, buf.Bytes()) {
				t.Fatalf("AppendEvent(%#v) = %q, json.Encoder writes %q", ev, enc, buf.Bytes())
			}
		}
	})
}

// sinkValues keeps allocation baselines honest: the map escapes as
// DecodeInstant's result does.
var sinkValues map[string]cval.Value

// TestDecodeInstantAllocs pins DecodeInstant's allocations to its
// result map plus one per valued input: no per-call name tables.
func TestDecodeInstantAllocs(t *testing.T) {
	stack := buildDesign(t, "stack.ecl", paperex.Stack, "toplevel")
	in := map[string]string{"in_byte": "0x7e", "reset": ""}
	resultMap := testing.AllocsPerRun(200, func() {
		m := make(map[string]cval.Value, len(in))
		for name := range in {
			m[name] = cval.Value{}
		}
		sinkValues = m
	})
	for _, backend := range []string{"interp", "efsm-table"} {
		m, err := Open(backend, stack)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if sinkValues, err = DecodeInstant(m, in); err != nil {
				t.Fatal(err)
			}
		})
		if want := resultMap + 1; got != want {
			t.Errorf("%s: DecodeInstant makes %v allocations, want %v (result map %v + 1 valued input)", backend, got, want, resultMap)
		}
		if _, err := DecodeInstant(m, map[string]string{"nope": ""}); err == nil ||
			err.Error() != `unknown input "nope" (module inputs: in_byte, reset)` {
			t.Errorf("%s: unknown input error %v", backend, err)
		}
	}
}
