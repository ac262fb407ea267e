package exec

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cval"
	"repro/internal/paperex"
)

// TestSnapshotBlobRoundTrip serializes a mid-run machine on every
// snapshot-capable backend and restores the blob into a fresh machine,
// which must continue byte-identically with the original — across both
// a pure-signal design (abro) and one with valued signals and data
// state (the protocol stack).
func TestSnapshotBlobRoundTrip(t *testing.T) {
	designs := []struct {
		path, src, module string
	}{
		{"abro.ecl", paperex.ABRO, "abro"},
		{"stack.ecl", paperex.Stack, "toplevel"},
	}
	for _, d := range designs {
		design := buildDesign(t, d.path, d.src, d.module)
		for _, backend := range []string{"interp", "efsm", "efsm-min", "efsm-table"} {
			t.Run(d.module+"/"+backend, func(t *testing.T) {
				m, err := Open(backend, design)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(42))
				warmup := randomInstantsFor(rng, m, 11, 0.6)
				if _, err := Record(m, warmup); err != nil {
					t.Fatal(err)
				}
				snap, err := m.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				blob, err := EncodeSnapshot(m, snap, len(warmup))
				if err != nil {
					t.Fatal(err)
				}

				fresh, err := Open(backend, design)
				if err != nil {
					t.Fatal(err)
				}
				restored, instant, err := DecodeSnapshot(fresh, blob)
				if err != nil {
					t.Fatal(err)
				}
				if instant != len(warmup) {
					t.Fatalf("decoded instant %d, want %d", instant, len(warmup))
				}
				if err := fresh.Restore(restored); err != nil {
					t.Fatal(err)
				}

				tail := randomInstantsFor(rng, m, 25, 0.6)
				want, err := Record(m, tail)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Record(fresh, tail)
				if err != nil {
					t.Fatal(err)
				}
				if err := Diff(want, got); err != nil {
					t.Fatalf("restored machine diverged: %v", err)
				}
			})
		}
	}
}

// TestSnapshotBlobValidation rejects blobs from the wrong backend,
// module, or format version, and reports ErrUnsupported for backends
// without portable snapshots.
func TestSnapshotBlobValidation(t *testing.T) {
	abro := buildDesign(t, "abro.ecl", paperex.ABRO, "abro")
	fin := buildDesign(t, "finis.ecl", finisSrc, "finis")

	m, err := Open("efsm", abro)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeSnapshot(m, snap, 0)
	if err != nil {
		t.Fatal(err)
	}

	other, _ := Open("interp", abro)
	if _, _, err := DecodeSnapshot(other, blob); err == nil {
		t.Error("efsm blob decoded on interp")
	}
	wrongModule, _ := Open("efsm", fin)
	if _, _, err := DecodeSnapshot(wrongModule, blob); err == nil {
		t.Error("abro blob decoded on finis")
	}

	var sb SnapshotBlob
	if err := json.Unmarshal(blob, &sb); err != nil {
		t.Fatal(err)
	}
	sb.Version = 99
	bad, _ := json.Marshal(sb)
	if _, _, err := DecodeSnapshot(m, bad); err == nil {
		t.Error("future-version blob decoded")
	}

	simM, err := Open("sim", abro)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeSnapshot(simM, nil, 0); !errors.Is(err, ErrUnsupported) {
		t.Errorf("sim EncodeSnapshot error %v, want ErrUnsupported", err)
	}
}

// TestParkedBlobsRevive revives blobs parked mid-run by the efsm and
// efsm-min backends back when they ran the tree-walking EFSM runtime
// (testdata/parked; stack, buffer and runner modules). Each must
// decode into today's machine of the same backend and continue with
// the interpreter's trace from the parked instant on.
func TestParkedBlobsRevive(t *testing.T) {
	files, err := filepath.Glob("testdata/parked/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no parked blobs (%v)", err)
	}
	srcs := map[string]string{
		"stack.ecl":  paperex.Stack,
		"buffer.ecl": paperex.Buffer,
		"runner.ecl": paperex.RunnerStop,
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var parked struct {
				Path     string              `json:"path"`
				Module   string              `json:"module"`
				Backend  string              `json:"backend"`
				Instants []map[string]string `json:"instants"`
				Blob     json.RawMessage     `json:"blob"`
			}
			if err := json.Unmarshal(data, &parked); err != nil {
				t.Fatal(err)
			}
			design := buildDesign(t, parked.Path, srcs[parked.Path], parked.Module)
			ref, err := Open("interp", design)
			if err != nil {
				t.Fatal(err)
			}
			instants := make([]map[string]cval.Value, len(parked.Instants))
			for i, enc := range parked.Instants {
				if instants[i], err = DecodeInstant(ref, enc); err != nil {
					t.Fatal(err)
				}
			}
			want, err := Record(ref, instants)
			if err != nil {
				t.Fatal(err)
			}

			m, err := Open(parked.Backend, design)
			if err != nil {
				t.Fatal(err)
			}
			snap, at, err := DecodeSnapshot(m, parked.Blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if at <= 0 || at >= len(want.Events) {
				t.Fatalf("parked at instant %d of %d", at, len(want.Events))
			}
			emitted := 0
			for i, ev := range want.Events[at:] {
				res, err := m.Step(instants[at+i])
				if err != nil {
					t.Fatalf("instant %d: %v", at+i, err)
				}
				got := ObservationString(EncodeInstant(res.Outputs), res.Terminated)
				if w := ObservationString(ev.Outputs, ev.Terminated); got != w {
					t.Fatalf("instant %d: revived %s [%s], interp [%s]", at+i, parked.Backend, got, w)
				}
				emitted += len(res.Outputs)
			}
			if emitted == 0 {
				t.Fatal("nothing emitted after the parked instant: the comparison proves nothing")
			}
		})
	}
}
