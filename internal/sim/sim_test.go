package sim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ctypes"
	"repro/internal/cval"
	"repro/internal/paperex"
	"repro/internal/sem"
)

func TestTopInstances(t *testing.T) {
	info, err := AnalyzeSource("stack.ecl", paperex.Stack)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := TopInstances(info, "toplevel")
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 3 {
		t.Fatalf("got %d instances, want 3", len(insts))
	}
	if insts[0].Module != "assemble" || insts[1].Module != "checkcrc" || insts[2].Module != "prochdr" {
		t.Errorf("instances: %+v", insts)
	}
	if len(insts[2].Args) != 4 || insts[2].Args[0] != "reset" || insts[2].Args[2] != "packet" {
		t.Errorf("prochdr args: %v", insts[2].Args)
	}
}

func TestStackSyncBehaviour(t *testing.T) {
	info, err := AnalyzeSource("stack.ecl", paperex.Stack)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildSync(info, "toplevel", Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStack(sys, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.AddrMatches != res.GoodPackets {
		t.Errorf("sync: %d matches for %d good packets", res.AddrMatches, res.GoodPackets)
	}
}

func TestStackAsyncBehaviour(t *testing.T) {
	info, err := AnalyzeSource("stack.ecl", paperex.Stack)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildAsync(info, "toplevel", Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStack(sys, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.AddrMatches != res.GoodPackets {
		t.Errorf("async: %d matches for %d good packets", res.AddrMatches, res.GoodPackets)
	}
	m := sys.Metrics()
	if m.Tasks != 3 {
		t.Errorf("tasks = %d, want 3", m.Tasks)
	}
	if m.KernelCycles == 0 || m.TaskCycles == 0 {
		t.Error("cycle accounting missing")
	}
}

func TestBufferBothPartitions(t *testing.T) {
	info, err := AnalyzeSource("buffer.ecl", paperex.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"sync", "async"} {
		var sys System
		if mode == "sync" {
			sys, err = BuildSync(info, "bufferctl", Config{})
		} else {
			sys, err = BuildAsync(info, "bufferctl", Config{})
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		res, err := RunBuffer(sys, 2, 24)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.SpkSamples == 0 {
			t.Errorf("%s: no playback output", mode)
		}
	}
}

// TestSyncAsyncAgreeOnStack checks that both partitions produce the
// same number of address matches (the designer's obligation in the
// paper: "all the resulting variants of behavior are equally good").
func TestSyncAsyncAgreeOnStack(t *testing.T) {
	info, err := AnalyzeSource("stack.ecl", paperex.Stack)
	if err != nil {
		t.Fatal(err)
	}
	syncSys, err := BuildSync(info, "toplevel", Config{})
	if err != nil {
		t.Fatal(err)
	}
	asyncSys, err := BuildAsync(info, "toplevel", Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunStack(syncSys, 8)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := RunStack(asyncSys, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rs.AddrMatches != ra.AddrMatches {
		t.Errorf("sync %d matches, async %d matches", rs.AddrMatches, ra.AddrMatches)
	}
}

func TestTable1SmallRun(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Packets = 6
	cfg.Messages = 1
	cfg.SamplesPerMessage = 16
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	text := FormatTable1(rows)
	if text == "" {
		t.Error("empty table")
	}
	t.Logf("\n%s", text)

	byKey := map[string]Table1Row{}
	for _, r := range rows {
		byKey[r.Example+"/"+r.Partition] = r
	}
	// Paper shape 1: async partitions carry more total memory.
	if byKey["Stack/3 tasks"].Total() <= byKey["Stack/1 task"].Total() {
		t.Errorf("stack: async total memory %d should exceed sync %d",
			byKey["Stack/3 tasks"].Total(), byKey["Stack/1 task"].Total())
	}
	// Paper shape 2: buffer sync task code exceeds async task code
	// (product-machine growth).
	if byKey["Buffer/1 task"].TaskCode <= byKey["Buffer/3 tasks"].TaskCode {
		t.Errorf("buffer: sync code %d should exceed async code %d",
			byKey["Buffer/1 task"].TaskCode, byKey["Buffer/3 tasks"].TaskCode)
	}
	// Paper shape 3: RTOS cycles grow with task count.
	if byKey["Stack/3 tasks"].RTOSKCycles <= byKey["Stack/1 task"].RTOSKCycles {
		t.Errorf("stack: async RTOS cycles %.0f should exceed sync %.0f",
			byKey["Stack/3 tasks"].RTOSKCycles, byKey["Stack/1 task"].RTOSKCycles)
	}
	if byKey["Buffer/3 tasks"].RTOSKCycles <= byKey["Buffer/1 task"].RTOSKCycles {
		t.Errorf("buffer: async RTOS cycles should exceed sync")
	}
}

// TestStepSlotsZeroAllocs checks that a steady-state StepSlots tick
// allocates nothing on all four Table 1 systems: stack byte ticks,
// buffer record ticks with mic_sample and playback ticks with rd_data.
func TestStepSlotsZeroAllocs(t *testing.T) {
	for _, ts := range table1TickSystems(t) {
		sys, err := ts.build()
		if err != nil {
			t.Fatalf("%s: %v", ts.name, err)
		}
		d := newSlotDriver(sys)
		d.out = newValues(sys.Outputs())
		step := func(inputs ...int) {
			if err := d.step(inputs...); err != nil {
				t.Fatalf("%s: %v", ts.name, err)
			}
		}
		// measure runs tick(0..warm-1) to warm up, then counts the
		// allocations of each further group of per ticks. AllocsPerRun
		// rounds the count per run down, so a group spans a whole
		// period of the stimulus.
		measure := func(phase string, warm, runs, per int, tick func(n int)) {
			n := 0
			for ; n < warm; n++ {
				tick(n)
			}
			group := func() {
				for end := n + per; n < end; n++ {
					tick(n)
				}
			}
			if allocs := testing.AllocsPerRun(runs, group); allocs != 0 {
				t.Errorf("%s: %s: StepSlots allocates %.0f objects per %d ticks, want 0", ts.name, phase, allocs, per)
			}
		}
		if strings.HasPrefix(ts.name, "stack") {
			inByte, byteVal := d.valued("in_byte", ctypes.UChar)
			if d.err != nil {
				t.Fatal(d.err)
			}
			pkt := paperex.MakePacket(true)
			period := paperex.PktSize + paperex.HdrSize + 2
			measure("byte ticks", 2*period, 4, period, func(n int) {
				if k := n % period; k < paperex.PktSize {
					byteVal.SetInt(int64(pkt[k]))
					step(inByte)
				} else {
					step()
				}
			})
			continue
		}
		recBtn, playBtn, stopBtn := d.input("rec_btn"), d.input("play_btn"), d.input("stop_btn")
		mic, micVal := d.valued("mic_sample", ctypes.UChar)
		rdData, rdVal := d.valued("rd_data", ctypes.UChar)
		rdReq := d.output("rd_req")
		if d.err != nil {
			t.Fatal(d.err)
		}
		step()
		step(recBtn)
		measure("record ticks", 8, 16, 2, func(n int) {
			if n%2 == 0 {
				micVal.SetInt(int64(40 + n))
				step(mic)
			} else {
				step()
			}
		})
		step(stopBtn)
		step(playBtn)
		pending := d.emitted(rdReq)
		measure("playback ticks", 4, 12, 2, func(n int) {
			if pending {
				rdVal.SetInt(int64(40 + n))
				step(rdData)
			} else {
				step()
			}
			pending = d.emitted(rdReq)
		})
	}
}

// aliasSource binds one top-level wire to two input parameters of the
// same instance.
const aliasSource = `
module both (input pure x, input pure y, output pure o)
{
    while (1) {
        await (x);
        present (y) { emit (o); }
    }
}

module top (input pure a, output pure o)
{
    par {
        both (a, a, o);
    }
}
`

// TestAsyncWireFeedsEverySlot checks that a wire bound to two input
// parameters reaches both of them in the asynchronous partition, so
// both partitions emit o on the same ticks.
func TestAsyncWireFeedsEverySlot(t *testing.T) {
	info, err := AnalyzeSource("alias.ecl", aliasSource)
	if err != nil {
		t.Fatal(err)
	}
	emits := func(build func(*sem.Info, string, Config) (System, error)) []int {
		sys, err := build(info, "top", Config{})
		if err != nil {
			t.Fatal(err)
		}
		var ticks []int
		for n := 0; n < 12; n++ {
			in := map[string]cval.Value{}
			if n%2 == 1 && n < 11 {
				in["a"] = cval.Value{}
			}
			out, err := sys.Step(in)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := out["o"]; ok {
				ticks = append(ticks, n)
			}
		}
		return ticks
	}
	sync, async := emits(BuildSync), emits(BuildAsync)
	if len(sync) != 5 {
		t.Fatalf("sync emitted o on ticks %v, want 5 ticks", sync)
	}
	if !slices.Equal(sync, async) {
		t.Errorf("o emitted on ticks %v by the sync partition, %v by the async one", sync, async)
	}
}
