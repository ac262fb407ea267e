// Differential conformance tests: the paper gives ECL several
// execution routes that must agree — the reference interpreter
// (Esterel's logical semantics with constructive causality), the
// compiled EFSM, its bisimulation-minimized variant, and synthesized
// code. These tests drive every conformant backend registered with
// internal/exec over identical pseudo-random input sequences on every
// paper-example module and require the canonical traces to match
// instant by instant; generated Go code is compiled with the host
// toolchain and diffed through the same trace format.
package ecl

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/driver"
	"repro/internal/efsm"
	"repro/internal/exec"
	"repro/internal/paperex"
)

// conformanceCases lists every paper-example module that compiles.
var conformanceCases = []struct {
	path, src, module string
}{
	{"abro.ecl", paperex.ABRO, "abro"},
	{"runner.ecl", paperex.RunnerStop, "runner"},
	{"stack.ecl", paperex.Stack, "assemble"},
	{"stack.ecl", paperex.Stack, "checkcrc"},
	{"stack.ecl", paperex.Stack, "prochdr"},
	{"stack.ecl", paperex.Stack, "toplevel"},
	{"buffer.ecl", paperex.Buffer, "recordctl"},
	{"buffer.ecl", paperex.Buffer, "playctl"},
	{"buffer.ecl", paperex.Buffer, "levelmon"},
	{"buffer.ecl", paperex.Buffer, "bufferctl"},
}

// randomInstants builds a deterministic pseudo-random string-keyed
// input sequence from a machine's input descriptors: each instant
// presents each input with probability p, valued inputs carrying a
// small random value.
func randomInstants(rng *rand.Rand, m exec.Machine, n int, p float64) []map[string]cval.Value {
	instants := make([]map[string]cval.Value, n)
	for i := range instants {
		in := map[string]cval.Value{}
		for _, sig := range m.Inputs() {
			if rng.Float64() >= p {
				continue
			}
			var v cval.Value
			if !sig.Pure && sig.Type != nil {
				v = cval.FromInt(sig.Type, int64(rng.Intn(256)))
			}
			in[sig.Name] = v
		}
		instants[i] = in
	}
	return instants
}

// recordTrace opens a fresh machine of the named backend and records
// the workload through it.
func recordTrace(t *testing.T, backend string, design *core.Design, instants []map[string]cval.Value) *exec.Trace {
	t.Helper()
	m, err := exec.Open(backend, design)
	if err != nil {
		t.Fatalf("open %s: %v", backend, err)
	}
	tr, err := exec.Record(m, instants)
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	return tr
}

// TestConformanceBackends is the generic N-way diff: every conformant
// registered backend must produce the reference interpreter's trace on
// every paper example.
func TestConformanceBackends(t *testing.T) {
	backends := exec.ConformantBackends()
	if len(backends) < 3 {
		t.Fatalf("want at least interp/efsm/efsm-min, have %v", backends)
	}
	d := driver.New(0)
	for _, tc := range conformanceCases {
		tc := tc
		t.Run(tc.module, func(t *testing.T) {
			res := d.BuildOne(driver.Request{Path: tc.path, Source: tc.src, Module: tc.module})
			if res.Failed() {
				t.Fatalf("build: %v", res.Err)
			}
			ref, err := exec.Open("interp", res.Design)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				instants := randomInstants(rng, ref, 60, 0.35)
				want := recordTrace(t, "interp", res.Design, instants)
				for _, backend := range backends {
					if backend == "interp" {
						continue
					}
					got := recordTrace(t, backend, res.Design, instants)
					if err := exec.Diff(want, got); err != nil {
						t.Errorf("%s seed %d (interp vs %s): %v", tc.module, seed, backend, err)
					}
				}
			}
		})
	}
}

// TestConformanceMinimizeShrinks checks that bisimulation minimization
// never grows the machine (behavior equality is covered by the generic
// diff above through the efsm-min backend).
func TestConformanceMinimizeShrinks(t *testing.T) {
	d := driver.New(0)
	for _, tc := range conformanceCases {
		res := d.BuildOne(driver.Request{Path: tc.path, Source: tc.src, Module: tc.module})
		if res.Failed() {
			t.Fatalf("build %s: %v", tc.module, res.Err)
		}
		min, _ := efsm.Minimize(res.Design.Machine)
		if got, was := len(min.States), len(res.Design.Machine.States); got > was {
			t.Errorf("%s: minimize grew the machine: %d -> %d states", tc.module, was, got)
		}
	}
}

// TestConformanceTraceReplay checks the acceptance path end to end: a
// trace recorded on one backend, serialized to JSONL, read back, and
// replayed against a different backend reproduces the observations.
func TestConformanceTraceReplay(t *testing.T) {
	d := driver.New(0)
	res := d.BuildOne(driver.Request{Path: "stack.ecl", Source: paperex.Stack, Module: "toplevel"})
	if res.Failed() {
		t.Fatalf("build: %v", res.Err)
	}
	m, err := exec.Open("efsm", res.Design)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	recorded, err := exec.Record(m, randomInstants(rng, m, 80, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := recorded.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := exec.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"interp", "efsm-min"} {
		other, err := exec.Open(backend, res.Design)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Replay(other, back)
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.Diff(back, got); err != nil {
			t.Errorf("efsm trace replayed on %s: %v", backend, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Generated-Go conformance

// goHarness is the driver compiled next to the generated machine: it
// reads a canonical JSONL trace on stdin, reacts instant by instant,
// and writes its own observations as JSONL events on stdout.
const goHarness = `package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

type event struct {
	I    int               ` + "`json:\"i\"`" + `
	In   map[string]string ` + "`json:\"in,omitempty\"`" + `
	Out  map[string]string ` + "`json:\"out,omitempty\"`" + `
	Term bool              ` + "`json:\"term,omitempty\"`" + `
}

func main() {
	m := New()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first { // header
			first = false
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		in := map[string][]byte{}
		for name, v := range ev.In {
			if v == "" {
				in[name] = nil
				continue
			}
			b, err := hex.DecodeString(strings.TrimPrefix(v, "0x"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			in[name] = b
		}
		got := m.React(in)
		oute := event{I: ev.I, Out: map[string]string{}, Term: m.Done()}
		for name, b := range got {
			if b == nil {
				oute.Out[name] = ""
			} else {
				oute.Out[name] = "0x" + hex.EncodeToString(b)
			}
		}
		if err := enc.Encode(oute); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if m.Done() {
			break
		}
	}
}
`

// TestConformanceGeneratedGo compiles each module's synthesized Go
// code with the host toolchain and diffs its trace against the
// reference interpreter's via the canonical trace format.
func TestConformanceGeneratedGo(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-Go conformance needs the go toolchain; skipped in -short")
	}
	goTool, err := osexec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	d := driver.New(0)
	for _, tc := range conformanceCases {
		tc := tc
		t.Run(tc.module, func(t *testing.T) {
			t.Parallel()
			res := d.BuildOne(driver.Request{
				Path: tc.path, Source: tc.src, Module: tc.module,
				Targets: []driver.Target{driver.TargetGo}, GoPackage: "main",
			})
			if res.Failed() {
				t.Fatalf("build: %v", res.Err)
			}
			ref, err := exec.Open("interp", res.Design)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			want, err := exec.Record(ref, randomInstants(rng, ref, 40, 0.35))
			if err != nil {
				t.Fatal(err)
			}

			got := runGeneratedGo(t, goTool, tc.module, res.Artifacts[driver.TargetGo], want)
			if err := exec.Diff(want, got); err != nil {
				t.Errorf("%s (interp vs generated Go): %v", tc.module, err)
			}
		})
	}
}

// runGeneratedGo compiles a module's generated Go next to goHarness,
// feeds it want's inputs, and returns the trace it observes.
func runGeneratedGo(t *testing.T, goTool, module, machineGo string, want *exec.Trace) *exec.Trace {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":     "module genconf\n\ngo 1.24\n",
		"machine.go": machineGo,
		"main.go":    goHarness,
	}
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	var stdin bytes.Buffer
	if err := want.Encode(&stdin); err != nil {
		t.Fatal(err)
	}
	cmd := osexec.Command(goTool, "run", ".")
	cmd.Dir = dir
	cmd.Stdin = &stdin
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run: %v\n%s", err, stderr.String())
	}

	got := exec.NewTrace(module, "gen-go")
	for _, line := range strings.Split(stdout.String(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var ev exec.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("harness output %q: %v", line, err)
		}
		got.Events = append(got.Events, ev)
	}
	return got
}

// TestGeneratedCSyntax checks the C the paper's flow ships: every C
// file and glue header emitted from examples/*.ecl must pass the host
// C compiler's C99 syntax check with warnings as errors. Figure 3's
// "if (~crc_ok)" must come out as a logical not, and Figure 2's
// array-to-int cast must read the CRC field's own two bytes.
func TestGeneratedCSyntax(t *testing.T) {
	cc, err := osexec.LookPath("cc")
	if err != nil {
		t.Skipf("generated-C syntax check needs a C compiler: %v", err)
	}
	paths, err := filepath.Glob("examples/*.ecl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples/*.ecl: %v", err)
	}
	d := driver.New(0)
	dir := t.TempDir()
	targets := []driver.Target{driver.TargetC, driver.TargetGlue}
	var all strings.Builder
	for _, path := range paths {
		reqs, err := d.ExpandModules(driver.Request{Path: path, Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range reqs {
			res := d.BuildOne(req)
			if res.Failed() {
				t.Fatalf("%s: module %s: %v", path, req.Module, res.Err)
			}
			for _, tg := range targets {
				name := filepath.Join(dir, tg.Filename(res.Module))
				if err := os.WriteFile(name, []byte(res.Artifacts[tg]), 0o666); err != nil {
					t.Fatal(err)
				}
				out, err := osexec.Command(cc, "-std=c99", "-Wall", "-Werror", "-fsyntax-only", name).CombinedOutput()
				if err != nil {
					t.Errorf("%s: %s does not compile: %v\n%s", path, filepath.Base(name), err, out)
				}
				all.WriteString(res.Artifacts[tg])
			}
		}
	}
	for _, want := range []string{
		"if (!crc_ok_val) {",
		"ecl_ld_be((const unsigned char *)inpkt_val.cooked.crc, 2)",
	} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("generated C lacks %q", want)
		}
	}
}

// switchSemanticsSrc exercises C switch dispatch where a top-to-bottom
// scan goes wrong: a default placed before a matching case (pick, and
// the reactive switch in the module body), fallthrough out of a
// non-empty clause and through empty ones, a default sharing its body
// with the labels around it (fall), and both inside a data loop the
// splitter extracts as a data function.
const switchSemanticsSrc = `
int pick(int v)
{
    int r = 0;
    switch (v) {
    default:
        r = 9;
        break;
    case 1:
        r = 1;
        break;
    }
    return r;
}

int fall(int v)
{
    int q = 0;
    switch (v) {
    case 2:
        q = 2;
    case 3:
        q = q + 30;
        break;
    case 4:
    default:
    case 5:
        q = q + 500;
    }
    return q;
}

module swsem (input int v, output int a, output int b, output int c,
              output int d)
{
    int x;
    int y;
    int k;

    while (1) {
        await (v);
        switch (v & 3) {
        default:
            x = 9;
            break;
        case 1:
            x = 1;
            break;
        }
        y = 0;
        for (k = 0; k < 2; k++) {
            switch (v & 3) {
            default:
                y = y + 100;
            case 1:
                y = y + 1;
            }
        }
        emit_v (a, pick(v & 3));
        emit_v (b, fall(v & 7));
        emit_v (c, x);
        emit_v (d, y);
    }
}
`

// TestConformanceSwitchSemantics pins C switch semantics on the
// interpreter with expected values, then requires every conformant
// backend and the generated Go to reproduce its trace.
func TestConformanceSwitchSemantics(t *testing.T) {
	d := driver.New(0)
	res := d.BuildOne(driver.Request{
		Path: "switch.ecl", Source: switchSemanticsSrc, Module: "swsem",
		Targets: []driver.Target{driver.TargetGo}, GoPackage: "main",
	})
	if res.Failed() {
		t.Fatalf("build: %v", res.Err)
	}
	ref, err := exec.Open("interp", res.Design)
	if err != nil {
		t.Fatal(err)
	}
	instants := []map[string]cval.Value{{}} // boot: the await arms
	for v := int64(0); v < 16; v++ {
		instants = append(instants, map[string]cval.Value{"v": cval.FromInt(ctypes.Int, v)})
	}
	want, err := exec.Record(ref, instants)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 16; v++ {
		pick, fall, x, y := int64(9), int64(500), int64(9), int64(202)
		if v&3 == 1 {
			pick, x, y = 1, 1, 2
		}
		switch v & 7 {
		case 2:
			fall = 32
		case 3:
			fall = 30
		}
		exp := map[string]string{}
		for name, n := range map[string]int64{"a": pick, "b": fall, "c": x, "d": y} {
			exp[name] = exec.EncodeValue(cval.FromInt(ctypes.Int, n))
		}
		got := want.Events[v+1].Outputs
		if exec.ObservationString(got, false) != exec.ObservationString(exp, false) {
			t.Errorf("interp, v=%d: outputs %v, want %v", v, got, exp)
		}
	}

	for _, backend := range exec.ConformantBackends() {
		if backend == "interp" {
			continue
		}
		if err := exec.Diff(want, recordTrace(t, backend, res.Design, instants)); err != nil {
			t.Errorf("interp vs %s: %v", backend, err)
		}
	}
	if testing.Short() {
		return
	}
	if goTool, err := osexec.LookPath("go"); err == nil {
		got := runGeneratedGo(t, goTool, "swsem", res.Artifacts[driver.TargetGo], want)
		if err := exec.Diff(want, got); err != nil {
			t.Errorf("interp vs generated Go: %v", err)
		}
	}
}

// failedInstantSrc divides by zero in one par branch while its sibling
// has not run yet, then reads what the sibling would have assigned.
const failedInstantSrc = `module f(input pure go, input pure show, output int out) {
    int z;
    int x;
    z = 0;
    x = 0;
    par {
        { while (1) { await (go); par { { x = 1 / z; } { x = 7; } } } }
        { while (1) { await (show); emit_v (out, x); } }
    }
}
`

// TestConformanceFailedInstant steps a script through an instant that
// fails with a division by zero on every conformant backend. Each
// instant must fail on every backend, or none, and otherwise give the
// same outputs: a failed instant leaves exactly what ran before the
// failure, so the branch the failure cut off has not assigned x.
func TestConformanceFailedInstant(t *testing.T) {
	res := driver.New(0).BuildOne(driver.Request{Path: "f.ecl", Source: failedInstantSrc, Module: "f"})
	if res.Failed() {
		t.Fatalf("build: %v", res.Err)
	}
	script := []map[string]cval.Value{{}, {"go": {}}, {"show": {}}}
	want := []string{"", "error: division by zero", "out=" + exec.EncodeValue(cval.FromInt(ctypes.Int, 0))}
	for _, backend := range exec.ConformantBackends() {
		m, err := exec.Open(backend, res.Design)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range script {
			r, err := m.Step(in)
			var got string
			if err != nil {
				got = "error: " + err.Error()
			} else {
				outs := map[string]string{}
				for name, v := range r.Outputs {
					outs[name] = exec.EncodeValue(v)
				}
				got = exec.ObservationString(outs, r.Terminated)
			}
			if got != want[i] {
				t.Errorf("%s instant %d: %q, want %q", backend, i, got, want[i])
			}
		}
	}
}
