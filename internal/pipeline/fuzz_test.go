package pipeline

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/paperex"
)

func corruptV2Blobs(t *testing.T, dir string) {
	t.Helper()
	n := 0
	filepath.Walk(filepath.Join(dir, "v2", "blobs"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		n++
		return os.WriteFile(path, []byte("garbage"), 0o644)
	})
	if n == 0 {
		t.Fatal("no v2 blobs to corrupt")
	}
}

// escapeSource keeps inline expressions (kernel statements, not data
// functions) whose printed text JSON escapes.
const escapeSource = `module m (input int x, output int y) {
	int acc;
	char c;
	acc = 0;
	while (1) {
		await (x);
		if (x < 3 && acc > 1) { acc = acc & 7; }
		c = '\\';
		if (c == '\\' || x >= 9) { emit_v (y, acc); }
	}
}`

// FuzzSnapshotRoundTrip fuzzes the IR codecs: any source the compiler
// accepts must produce lowered and machine snapshots that survive
// Encode -> Decode -> Encode byte-identically, and the decoded machine
// must keep the state count; the lowered snapshot's appender must
// match the reference encoder. Registered in the CI fuzz job.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(paperex.ABRO)
	f.Add(paperex.Buffer)
	f.Add(paperex.RunnerStop)
	f.Add(dataEditSource(3))
	f.Add(`module m (input pure a, output pure b) { while (1) { await (a); emit (b); } }`)
	f.Add(`module m (input int x, output int y) {
	int acc;
	acc = 0;
	while (1) {
		await (x);
		while (acc < 10) { acc = acc + x; }
		emit_v (y, acc);
	}
}`)
	// Inline expressions whose printed text needs JSON escaping: <, >
	// and & (HTML-safe escapes) and a char literal holding a backslash.
	f.Add(escapeSource)
	f.Add(`module m (input int x, output int y) { while (1) { await (x); if (x > 0) { emit_v (y, (x << 2) >> 1); } } }`)
	// A char literal holding a raw byte that is not valid UTF-8: JSON
	// cannot carry it, so the lexer rejects it.
	f.Add("module A(input int A,output int B){int A00;char A;{'\xaf';}}")
	f.Fuzz(func(t *testing.T, src string) {
		opts := core.Options{
			// Bound exploration so pathological fuzz inputs fail fast
			// instead of timing out.
			Compile: compile.Options{MaxStates: 64, MaxRunsPerState: 512, MaxDecisionsPerRun: 16},
		}
		prog, err := core.Parse("fuzz.ecl", src, opts)
		if err != nil {
			return
		}
		mods := prog.Modules()
		if len(mods) == 0 {
			return
		}
		d, err := prog.Compile(mods[len(mods)-1])
		if err != nil {
			return
		}

		// The appender must write what the reference encoder marshals,
		// with and without bodies, error for error.
		checkAppender(t, "fuzz", d.Lowered)

		enc, err := EncodeLowered(d.Lowered)
		if err != nil {
			// Un-snapshotable modules (e.g. duplicate signal names) are
			// legal: the pipeline compiles them uncached.
			return
		}
		dec, err := DecodeLowered(enc)
		if err != nil {
			t.Fatalf("lowered decode: %v\nsource:\n%s", err, src)
		}
		enc2, err := EncodeLowered(dec)
		if err != nil {
			t.Fatalf("lowered re-encode: %v", err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("lowered snapshot not a fixpoint\nfirst:  %s\nsecond: %s", enc, enc2)
		}

		structFP, _, err := Fingerprints(prog.File, d.Lowered)
		if err != nil {
			return
		}
		menc, err := EncodeMachine(d.Machine, d.Lowered, structFP)
		if err != nil {
			return
		}
		mdec, err := DecodeMachine(menc, d.Lowered, structFP)
		if err != nil {
			t.Fatalf("machine decode: %v\nsource:\n%s", err, src)
		}
		if len(mdec.States) != len(d.Machine.States) {
			t.Fatalf("machine decode lost states: %d != %d", len(mdec.States), len(d.Machine.States))
		}
		menc2, err := EncodeMachine(mdec, d.Lowered, structFP)
		if err != nil {
			t.Fatalf("machine re-encode: %v", err)
		}
		if string(menc) != string(menc2) {
			t.Fatalf("machine snapshot not a fixpoint")
		}
	})
}
