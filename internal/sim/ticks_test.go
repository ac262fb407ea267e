package sim

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/paperex"
)

var update = flag.Bool("update", false, "rewrite testdata/ticks.golden from the current code")

// stepFunc is one environment tick of a system.
type stepFunc func(in map[string]cval.Value) (map[string]cval.Value, error)

// stackTicks is RunStack's stimulus at 12 packets: every 4th packet
// corrupted, the inter-packet gap ticks, and a reset after packet 6.
func stackTicks(step stepFunc) error {
	const packets = 12
	if _, err := step(nil); err != nil {
		return err
	}
	for p := 0; p < packets; p++ {
		pkt := paperex.MakePacket(p%4 != 3)
		for i := 0; i < paperex.PktSize; i++ {
			if _, err := step(map[string]cval.Value{"in_byte": cval.FromInt(ctypes.UChar, int64(pkt[i]))}); err != nil {
				return err
			}
		}
		for i := 0; i < paperex.HdrSize+2; i++ {
			if _, err := step(nil); err != nil {
				return err
			}
		}
		if p == packets/2 {
			if _, err := step(map[string]cval.Value{"reset": {}}); err != nil {
				return err
			}
		}
	}
	return nil
}

// bufferTicks is RunBuffer's stimulus at 2 messages of 48 samples: it
// answers each rd_req with an rd_data sample on the next tick.
func bufferTicks(step stepFunc) error {
	const messages, samples = 2, 48
	if _, err := step(nil); err != nil {
		return err
	}
	for msg := 0; msg < messages; msg++ {
		if _, err := step(map[string]cval.Value{"rec_btn": {}}); err != nil {
			return err
		}
		for i := 0; i < samples; i++ {
			in := map[string]cval.Value{}
			if i%2 == 0 {
				in["mic_sample"] = cval.FromInt(ctypes.UChar, int64(40+i%80))
			}
			if _, err := step(in); err != nil {
				return err
			}
		}
		if _, err := step(map[string]cval.Value{"stop_btn": {}}); err != nil {
			return err
		}
		out, err := step(map[string]cval.Value{"play_btn": {}})
		if err != nil {
			return err
		}
		_, pending := out["rd_req"]
		for i := 0; i < samples*2; i++ {
			in := map[string]cval.Value{}
			if pending {
				in["rd_data"] = cval.FromInt(ctypes.UChar, int64(40+i%80))
			}
			out, err := step(in)
			if err != nil {
				return err
			}
			_, pending = out["rd_req"]
		}
		if _, err := step(map[string]cval.Value{"stop_btn": {}}); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if _, err := step(nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// tickSystem is one of Table 1's four systems with its stimulus.
type tickSystem struct {
	name   string
	build  func() (System, error)
	script func(stepFunc) error
}

func table1TickSystems(t *testing.T) []tickSystem {
	t.Helper()
	stack, err := AnalyzeSource("stack.ecl", paperex.Stack)
	if err != nil {
		t.Fatal(err)
	}
	buffer, err := AnalyzeSource("buffer.ecl", paperex.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	return []tickSystem{
		{"stack/1 task", func() (System, error) { return BuildSync(stack, "toplevel", Config{}) }, stackTicks},
		{"stack/3 tasks", func() (System, error) { return BuildAsync(stack, "toplevel", Config{}) }, stackTicks},
		{"buffer/1 task", func() (System, error) { return BuildSync(buffer, "bufferctl", Config{}) }, bufferTicks},
		{"buffer/3 tasks", func() (System, error) { return BuildAsync(buffer, "bufferctl", Config{}) }, bufferTicks},
	}
}

// formatValues renders named values sorted by name, valued ones as
// name=hex, or "-" when there are none.
func formatValues(vals map[string]cval.Value) string {
	if len(vals) == 0 {
		return "-"
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		if v := vals[name]; v.IsValid() {
			names[i] = name + "=" + hex.EncodeToString(v.B)
		}
	}
	return strings.Join(names, ",")
}

// tickLine is one golden line: the tick's inputs and emitted outputs
// and the running counters after it.
func tickLine(n int, in, out map[string]cval.Value, m Metrics) string {
	return fmt.Sprintf("%d in=%s out=%s task=%d kernel=%d ticks=%d",
		n, formatValues(in), formatValues(out), m.TaskCycles, m.KernelCycles, m.Ticks)
}

// recordTicks drives a fresh system through its script with the map
// Step, returning the golden lines and the instants it fed.
func recordTicks(t *testing.T, ts tickSystem) ([]string, []map[string]cval.Value) {
	t.Helper()
	sys, err := ts.build()
	if err != nil {
		t.Fatalf("%s: %v", ts.name, err)
	}
	lines := []string{"== " + ts.name}
	var instants []map[string]cval.Value
	step := func(in map[string]cval.Value) (map[string]cval.Value, error) {
		out, err := sys.Step(in)
		if err != nil {
			return nil, err
		}
		instants = append(instants, in)
		lines = append(lines, tickLine(len(lines)-1, in, out, sys.Metrics()))
		return out, nil
	}
	if err := ts.script(step); err != nil {
		t.Fatalf("%s: %v", ts.name, err)
	}
	return lines, instants
}

// replayTicks drives a fresh system through the recorded instants with
// StepSlots, reusing one set of slot vectors and one value per valued
// input, and returns the same lines as recordTicks.
func replayTicks(t *testing.T, ts tickSystem, instants []map[string]cval.Value) []string {
	t.Helper()
	sys, err := ts.build()
	if err != nil {
		t.Fatalf("%s: %v", ts.name, err)
	}
	ins, outs := sys.Inputs(), sys.Outputs()
	present := make([]bool, len(ins)+len(outs))
	in, store, out := make([]cval.Value, len(ins)), newValues(ins), newValues(outs)
	lines := []string{"== " + ts.name}
	for _, inst := range instants {
		for i, sig := range ins {
			v, ok := inst[sig.Name]
			present[i], in[i] = ok, cval.Value{}
			if ok && v.IsValid() {
				copy(store[i].B, v.B)
				in[i] = store[i]
			}
		}
		if err := sys.StepSlots(present, in, out); err != nil {
			t.Fatalf("%s: tick %d: %v", ts.name, len(lines)-1, err)
		}
		emitted := map[string]cval.Value{}
		for j, sig := range outs {
			if present[len(ins)+j] {
				emitted[sig.Name] = out[j]
			}
		}
		lines = append(lines, tickLine(len(lines)-1, inst, emitted, sys.Metrics()))
	}
	return lines
}

// TestSystemTicksGolden pins every tick of a short Table 1 script on
// all four systems: the inputs, the emitted outputs and values, and
// the running task and kernel cycle counts. The map Step writes the
// lines; replaying the same instants through StepSlots must print
// them again.
func TestSystemTicksGolden(t *testing.T) {
	var got []string
	for _, ts := range table1TickSystems(t) {
		lines, instants := recordTicks(t, ts)
		if replay := replayTicks(t, ts, instants); !slices.Equal(replay, lines) {
			t.Fatalf("%s: the StepSlots replay differs from Step: %s", ts.name, firstDiff(replay, lines))
		}
		got = append(got, lines...)
	}
	text := strings.Join(got, "\n") + "\n"
	path := filepath.Join("testdata", "ticks.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if text != string(want) {
		t.Fatalf("ticks differ from %s: %s", path, firstDiff(got, strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")))
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, got[i], want[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(got), len(want))
}
