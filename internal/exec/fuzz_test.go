package exec

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cval"
	"repro/internal/paperex"
)

// fuzzCorpus compiles a spread of paper-example modules once: pure
// control (abro), weak abort (runner), valued data paths (assemble,
// checkcrc), and a multi-module product machine (recordctl).
var (
	fuzzOnce    sync.Once
	fuzzDesigns []*core.Design
	fuzzErr     error
)

func fuzzCorpusDesigns() ([]*core.Design, error) {
	fuzzOnce.Do(func() {
		for _, tc := range []struct{ path, src, module string }{
			{"abro.ecl", paperex.ABRO, "abro"},
			{"runner.ecl", paperex.RunnerStop, "runner"},
			{"stack.ecl", paperex.Stack, "assemble"},
			{"stack.ecl", paperex.Stack, "checkcrc"},
			{"buffer.ecl", paperex.Buffer, "recordctl"},
		} {
			prog, err := core.Parse(tc.path, tc.src, core.Options{})
			if err != nil {
				fuzzErr = err
				return
			}
			d, err := prog.Compile(tc.module)
			if err != nil {
				fuzzErr = err
				return
			}
			fuzzDesigns = append(fuzzDesigns, d)
		}
	})
	return fuzzDesigns, fuzzErr
}

// FuzzStep fuzzes the EFSM runtime step function through the Machine
// interface with arbitrary input-presence/value vectors: one byte per
// input per instant (bit 0 = present, remaining bits = value). The
// runtime must never panic, and a snapshot/restore round trip before
// each instant must reproduce the instant bit-for-bit.
func FuzzStep(f *testing.F) {
	if _, err := fuzzCorpusDesigns(); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0x01, 0x00, 0xff, 0x83})
	f.Add(uint8(2), []byte{0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41})
	f.Add(uint8(3), []byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x01, 0x01})
	f.Add(uint8(4), []byte{0x03, 0x05, 0x07, 0x09, 0x0b})
	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		designs, err := fuzzCorpusDesigns()
		if err != nil {
			t.Fatal(err)
		}
		design := designs[int(pick)%len(designs)]
		m, err := Open("efsm", design)
		if err != nil {
			t.Fatal(err)
		}
		inputs := m.Inputs()
		if len(inputs) == 0 {
			return
		}
		const maxInstants = 64
		pos := 0
		for instant := 0; instant < maxInstants && pos < len(data); instant++ {
			in := map[string]cval.Value{}
			for _, sig := range inputs {
				if pos >= len(data) {
					break
				}
				b := data[pos]
				pos++
				if b&1 == 0 {
					continue
				}
				var v cval.Value
				if !sig.Pure && sig.Type != nil {
					v = cval.FromInt(sig.Type, int64(b>>1))
				}
				in[sig.Name] = v
			}

			snap, err := m.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			res1, err1 := m.Step(in)
			if err := m.Restore(snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			res2, err2 := m.Step(in)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("snapshot round trip changed the outcome: %v vs %v", err1, err2)
			}
			if err1 != nil {
				// A data-execution error (e.g. division by zero driven
				// by a fuzzed value) is a legal outcome; panics are not.
				return
			}
			a := ObservationString(EncodeInstant(res1.Outputs), res1.Terminated)
			b := ObservationString(EncodeInstant(res2.Outputs), res2.Terminated)
			if a != b {
				t.Fatalf("snapshot round trip diverged at instant %d:\n  first:  [%s]\n  replay: [%s]", instant, a, b)
			}
			if res1.Terminated != m.Terminated() {
				t.Fatalf("Terminated() disagrees with the step result")
			}
			if res1.Terminated {
				return
			}
		}
	})
}

// FuzzTableDiff is the differential fuzz for the compiled-EFSM
// backends: efsm, efsm-min and efsm-table (all three on the table VM,
// over the compiled and the minimized machine) are driven against the
// reference interpreter with identical arbitrary input vectors. They
// must agree with it on every observation and error outcome while each
// round-trips its state through a portable snapshot blob every
// instant.
func FuzzTableDiff(f *testing.F) {
	if _, err := fuzzCorpusDesigns(); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0x01, 0x00, 0xff, 0x83})
	f.Add(uint8(2), []byte{0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41})
	f.Add(uint8(3), []byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x01, 0x01})
	f.Add(uint8(4), []byte{0x03, 0x05, 0x07, 0x09, 0x0b})
	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		designs, err := fuzzCorpusDesigns()
		if err != nil {
			t.Fatal(err)
		}
		design := designs[int(pick)%len(designs)]
		ref, err := Open("interp", design)
		if err != nil {
			t.Fatal(err)
		}
		var compiled []Machine
		for _, backend := range []string{"efsm", "efsm-min", "efsm-table"} {
			m, err := Open(backend, design)
			if err != nil {
				t.Fatal(err)
			}
			compiled = append(compiled, m)
		}
		inputs := ref.Inputs()
		if len(inputs) == 0 {
			return
		}
		const maxInstants = 64
		pos := 0
		for instant := 0; instant < maxInstants && pos < len(data); instant++ {
			in := map[string]cval.Value{}
			for _, sig := range inputs {
				if pos >= len(data) {
					break
				}
				b := data[pos]
				pos++
				if b&1 == 0 {
					continue
				}
				var v cval.Value
				if !sig.Pure && sig.Type != nil {
					v = cval.FromInt(sig.Type, int64(b>>1))
				}
				in[sig.Name] = v
			}

			want, errRef := ref.Step(in)
			for _, m := range compiled {
				// Round-trip the machine's state through the portable
				// blob: revival must not change behavior.
				snap, err := m.Snapshot()
				if err != nil {
					t.Fatalf("%s snapshot: %v", m.Backend(), err)
				}
				blob, err := EncodeSnapshot(m, snap, instant)
				if err != nil {
					t.Fatalf("%s encode: %v", m.Backend(), err)
				}
				restored, _, err := DecodeSnapshot(m, blob)
				if err != nil {
					t.Fatalf("%s decode: %v", m.Backend(), err)
				}
				if err := m.Restore(restored); err != nil {
					t.Fatalf("%s restore: %v", m.Backend(), err)
				}

				got, err := m.Step(in)
				if (errRef == nil) != (err == nil) {
					t.Fatalf("instant %d error outcome diverged: interp=%v %s=%v", instant, errRef, m.Backend(), err)
				}
				if err != nil {
					continue
				}
				a := ObservationString(EncodeInstant(want.Outputs), want.Terminated)
				b := ObservationString(EncodeInstant(got.Outputs), got.Terminated)
				if a != b {
					t.Fatalf("instant %d diverged:\n  interp: [%s]\n  %s: [%s]", instant, a, m.Backend(), b)
				}
			}
			if errRef != nil || want.Terminated {
				// A failed instant (e.g. fuzzed division by zero) is a
				// legal outcome, but leaves the machines in
				// backend-defined states: stop.
				return
			}
		}
	})
}
