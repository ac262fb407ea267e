package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sort"
	"strings"
	"sync"

	"repro/internal/analyze"
	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/lower"
)

// keyGeneration versions the whole phase-key scheme; bumping it (or
// snapCodecVersion, which every key folds in) turns all v2 entries,
// and the v1 design entries keyed through KeyParse, into misses after
// an incompatible change. Generation 2: C switch dispatch (parse,
// lowering, emitted Go) and priced instructions in table listings.
// Generation 3: generated C spells bool as _Bool, emits ~ on a bool as
// !, and reads a byte array's own size in the Figure 2 idiom; the glue
// header spells bool as the C does; generated Go compares a byte array
// against an integer in that integer's promoted type.
const keyGeneration = 3

// fph starts a phase-key hash, salted with the phase name and the key
// and codec generations.
func fph(phase Phase) hash.Hash {
	h := sha256.New()
	fmt.Fprintf(h, "ecl-phase:%s:g%d:c%d", phase, keyGeneration, snapCodecVersion)
	return h
}

func hpart(h hash.Hash, part string) {
	fmt.Fprintf(h, "\x00%d:", len(part))
	h.Write([]byte(part))
}

func hsum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func hmap(h hash.Hash, tag string, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(h, "\x00%s:%d", tag, len(keys))
	for _, k := range keys {
		fmt.Fprintf(h, "\x00%s\x01%s", k, m[k])
	}
}

// KeyParse fingerprints the parse phase: the source bytes (by SHA-256
// digest), the path (diagnostics and positions carry it), and the
// preprocessor configuration.
func KeyParse(path, src string, opts core.Options) string {
	h := fph(PhaseParse)
	hpart(h, path)
	sum := sourceDigest(src)
	hpart(h, string(sum[:]))
	hmap(h, "def", opts.Defines)
	hmap(h, "inc", opts.Includes)
	return hsum(h)
}

// lastSource memoizes the digest of the most recently keyed source. A
// batch keys every module of a file with the same string, and string
// equality returns at once when both sides share a backing array, so
// each file is hashed once rather than once per module.
var lastSource struct {
	sync.Mutex
	src    string
	digest [sha256.Size]byte
	ok     bool
}

// sourceDigest returns the SHA-256 digest of src.
func sourceDigest(src string) [sha256.Size]byte {
	lastSource.Lock()
	if lastSource.ok && lastSource.src == src {
		// Keep the caller's string: an equal source in a new backing
		// array (a re-read file) would otherwise be compared byte by
		// byte on every later call.
		lastSource.src = src
		sum := lastSource.digest
		lastSource.Unlock()
		return sum
	}
	lastSource.Unlock()
	sum := sha256.Sum256([]byte(src))
	lastSource.Lock()
	lastSource.src, lastSource.digest, lastSource.ok = src, sum, true
	lastSource.Unlock()
	return sum
}

// KeySem chains from parse: semantic analysis has no options of its
// own.
func KeySem(parseKey string) string {
	h := fph(PhaseSem)
	hpart(h, parseKey)
	return hsum(h)
}

// KeyLower chains from sem plus the selected module and splitter
// policy.
func KeyLower(semKey, module string, pol lower.Policy) string {
	h := fph(PhaseLower)
	hpart(h, semKey)
	hpart(h, module)
	fmt.Fprintf(h, "\x00pol:%d", pol)
	return hsum(h)
}

// KeyEFSM is the pipeline's cut point: it derives from the lowered
// module's *structural* fingerprint — not from the lower phase key —
// so any edit that leaves the reactive structure intact (in
// particular, a data-function body edit) keeps the EFSM key stable
// and replays the cached machine.
func KeyEFSM(structFP string, opts compile.Options) string {
	h := fph(PhaseEFSM)
	hpart(h, structFP)
	fmt.Fprintf(h, "\x00cmp:%d:%d:%d", opts.MaxStates, opts.MaxRunsPerState, opts.MaxDecisionsPerRun)
	return hsum(h)
}

// KeyEFSMMin chains from the unminimized machine's key.
func KeyEFSMMin(efsmKey string) string {
	h := fph(PhaseEFSMMin)
	hpart(h, efsmKey)
	return hsum(h)
}

// KeyAnalyze fingerprints the static-analysis phase: the machine it
// inspects (by phase key — efsm or efsm-min, so minimized and
// unminimized analyses cache separately), the front end's lower key
// (which chains back through sem and parse to the exact source bytes,
// so cached findings can never replay stale positions or miss a
// source-level edit the structural fingerprint forgives), and the rule
// registry's salt, so adding, removing, or revising a rule invalidates
// every cached findings snapshot.
func KeyAnalyze(machineKey, lowerKey string) string {
	h := fph(PhaseAnalyze)
	hpart(h, machineKey)
	hpart(h, lowerKey)
	hpart(h, analyze.KeySalt())
	return hsum(h)
}

// KeyAnalyzeFile fingerprints the design-level analysis of one file:
// the sem key (which chains back through parse to the exact source
// bytes and preprocessor config) plus the rule registry's salt. No
// module, policy, or machine enters the key — the design rules read
// only the semantic tables, once per file.
func KeyAnalyzeFile(semKey string) string {
	h := fph(PhaseAnalyzeFile)
	hpart(h, semKey)
	hpart(h, analyze.KeySalt())
	return hsum(h)
}

// KeyEmit fingerprints one emission: the machine it renders (by phase
// key), the data-function bodies the back ends inline (by data
// fingerprint), and the requested Go package name for emit-go.
func KeyEmit(phase Phase, machineKey, dataFP, goPkg string) string {
	h := fph(phase)
	hpart(h, machineKey)
	hpart(h, dataFP)
	if phase == PhaseEmitGo {
		hpart(h, goPkg)
	}
	return hsum(h)
}

// ---------------------------------------------------------------------------
// Fingerprints

// EnvFingerprint hashes the translation unit's non-module environment:
// typedefs, structs, enums, constants, and C function bodies, as
// canonically printed source. EFSM synthesis can read any of these
// through inline data expressions (constant folding evaluates helper
// calls and enum values), so they are part of the structural
// fingerprint even though the kernel tree does not spell them out.
func EnvFingerprint(file *ast.File) string {
	h := sha256.New()
	fmt.Fprintf(h, "ecl-env:c%d", snapCodecVersion)
	for _, d := range file.Decls {
		if _, isMod := d.(*ast.ModuleDecl); isMod {
			continue
		}
		hpart(h, ast.String(d))
	}
	return hsum(h)
}

// Fingerprints computes the two content fingerprints of a lowered
// module that split the phase graph:
//
//   - structural covers everything EFSM synthesis reads — the
//     environment (EnvFingerprint), the signal/variable interface, and
//     the kernel statement tree with its inline expressions — but NOT
//     data-function bodies, which the symbolic compiler treats as
//     opaque calls;
//   - data covers the data-function bodies, which only the back ends
//     read.
//
// Together they cover the full lowering result: any edit moves at
// least one of them, and a data-only edit moves only the second.
func Fingerprints(file *ast.File, low *lower.Result) (structural, data string, err error) {
	structSnap, err := buildLowSnap(low, false)
	if err != nil {
		return "", "", err
	}
	structBytes, err := json.Marshal(structSnap)
	if err != nil {
		return "", "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "ecl-struct:c%d", snapCodecVersion)
	hpart(h, EnvFingerprint(file))
	hpart(h, string(structBytes))
	structural = hsum(h)

	// The data key hashes each function's name, label and printed body,
	// lines joined by newlines: the funcSnap fields EncodeLowered
	// stores, so it matches the stored snapshot's functions exactly.
	hd := sha256.New()
	fmt.Fprintf(hd, "ecl-data:c%d", snapCodecVersion)
	var body strings.Builder
	for _, f := range low.Module.Funcs {
		hpart(hd, f.Name)
		hpart(hd, f.B.Label)
		body.Reset()
		for i, st := range f.Body {
			if i > 0 {
				body.WriteByte('\n')
			}
			body.WriteString(ast.String(st))
		}
		hpart(hd, body.String())
	}
	return structural, hsum(hd), nil
}
