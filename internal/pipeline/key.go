package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"

	"repro/internal/analyze"
	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/lower"
)

// keyGeneration versions the whole phase-key scheme; bumping it (or
// snapCodecVersion, which every key folds in) turns every stored
// entry, root entries included, into a miss after an incompatible
// change. Generation 2: C switch dispatch (parse,
// lowering, emitted Go) and priced instructions in table listings.
// Generation 3: generated C spells bool as _Bool, emits ~ on a bool as
// !, and reads a byte array's own size in the Figure 2 idiom; the glue
// header spells bool as the C does; generated Go compares a byte array
// against an integer in that integer's promoted type.
const keyGeneration = 3

// keyBufSize is the stack buffer a phase key starts in: enough for
// the header, two chained keys and the analyzer's rule salt.
const keyBufSize = 512

// appendKeyHeader starts a phase key's hashed bytes, salted with the
// phase name and the key and codec generations:
// "ecl-phase:<phase>:g<keyGeneration>:c<snapCodecVersion>".
func appendKeyHeader(b []byte, phase Phase) []byte {
	b = append(append(b, "ecl-phase:"...), phase...)
	b = strconv.AppendInt(append(b, ":g"...), keyGeneration, 10)
	return strconv.AppendInt(append(b, ":c"...), snapCodecVersion, 10)
}

// appendPart appends one length-prefixed part: "\x00<len>:<part>".
func appendPart[T string | []byte](b []byte, part T) []byte {
	b = strconv.AppendInt(append(b, 0), int64(len(part)), 10)
	return append(append(b, ':'), part...)
}

// sealPart makes b[mark:] a part, inserting the length prefix
// appendPart would have written before it; for parts appended in
// place, whose length is known only afterwards.
func sealPart(b []byte, mark int) []byte {
	var pre [24]byte
	p := strconv.AppendInt(append(pre[:0], 0), int64(len(b)-mark), 10)
	return slices.Insert(b, mark, append(p, ':')...)
}

// appendMap appends a map section, keys sorted:
// "\x00<tag>:<n>" then "\x00<k>\x01<v>" per entry.
func appendMap(b []byte, tag string, m map[string]string) []byte {
	var small [16]string
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(append(append(b, 0), tag...), ':')
	b = strconv.AppendInt(b, int64(len(keys)), 10)
	for _, k := range keys {
		b = append(append(append(append(b, 0), k...), 1), m[k]...)
	}
	return b
}

// sumKey returns the hex SHA-256 digest of a key's bytes.
func sumKey(b []byte) string {
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// KeyParse fingerprints the parse phase: the source bytes (by SHA-256
// digest), the path (diagnostics and positions carry it), and the
// preprocessor configuration.
func KeyParse(path, src string, opts core.Options) string {
	var buf [keyBufSize]byte
	b := appendPart(appendKeyHeader(buf[:0], PhaseParse), path)
	sum := sourceDigest(src)
	b = appendPart(b, sum[:])
	b = appendMap(b, "def", opts.Defines)
	b = appendMap(b, "inc", opts.Includes)
	return sumKey(b)
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
	var buf [keyBufSize]byte
	return sumKey(appendPart(appendKeyHeader(buf[:0], PhaseSem), parseKey))
}

// KeyLower chains from sem plus the selected module and splitter
// policy.
func KeyLower(semKey, module string, pol lower.Policy) string {
	var buf [keyBufSize]byte
	b := appendPart(appendPart(appendKeyHeader(buf[:0], PhaseLower), semKey), module)
	b = strconv.AppendInt(append(b, "\x00pol:"...), int64(pol), 10)
	return sumKey(b)
}

// KeyEFSM is the pipeline's cut point: it derives from the lowered
// module's *structural* fingerprint — not from the lower phase key —
// so any edit that leaves the reactive structure intact (in
// particular, a data-function body edit) keeps the EFSM key stable
// and replays the cached machine.
func KeyEFSM(structFP string, opts compile.Options) string {
	var buf [keyBufSize]byte
	b := appendPart(appendKeyHeader(buf[:0], PhaseEFSM), structFP)
	b = strconv.AppendInt(append(b, "\x00cmp:"...), int64(opts.MaxStates), 10)
	b = strconv.AppendInt(append(b, ':'), int64(opts.MaxRunsPerState), 10)
	b = strconv.AppendInt(append(b, ':'), int64(opts.MaxDecisionsPerRun), 10)
	return sumKey(b)
}

// KeyEFSMMin chains from the unminimized machine's key.
func KeyEFSMMin(efsmKey string) string {
	var buf [keyBufSize]byte
	return sumKey(appendPart(appendKeyHeader(buf[:0], PhaseEFSMMin), efsmKey))
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
	var buf [keyBufSize]byte
	b := appendPart(appendPart(appendKeyHeader(buf[:0], PhaseAnalyze), machineKey), lowerKey)
	return sumKey(appendPart(b, analyze.KeySalt()))
}

// KeyAnalyzeFile fingerprints the design-level analysis of one file:
// the sem key (which chains back through parse to the exact source
// bytes and preprocessor config) plus the rule registry's salt. No
// module, policy, or machine enters the key — the design rules read
// only the semantic tables, once per file.
func KeyAnalyzeFile(semKey string) string {
	var buf [keyBufSize]byte
	b := appendPart(appendKeyHeader(buf[:0], PhaseAnalyzeFile), semKey)
	return sumKey(appendPart(b, analyze.KeySalt()))
}

// KeyEmit fingerprints one emission: the machine it renders (by phase
// key), the data-function bodies the back ends inline (by data
// fingerprint), and the requested Go package name for emit-go.
func KeyEmit(phase Phase, machineKey, dataFP, goPkg string) string {
	var buf [keyBufSize]byte
	b := appendPart(appendPart(appendKeyHeader(buf[:0], phase), machineKey), dataFP)
	if phase == PhaseEmitGo {
		b = appendPart(b, goPkg)
	}
	return sumKey(b)
}

// KeyDesign fingerprints a whole request for the pipeline's root entry:
// the parse key (source, path, preprocessor configuration), the
// requested module ("" keys the last-module convention itself, not the
// module it resolves to), the splitter policy, minimization, the
// compile bounds, the emit phases in request order and the Go package.
// Everything that determines a request's outputs is in the key, so an
// entry is written once and never merged.
func KeyDesign(parseKey, module string, opts core.Options, emits []Phase, goPkg string) string {
	var buf [keyBufSize]byte
	b := appendPart(appendPart(appendKeyHeader(buf[:0], PhaseDesign), parseKey), module)
	b = strconv.AppendInt(append(b, "\x00pol:"...), int64(opts.Policy), 10)
	b = strconv.AppendBool(append(b, ":min:"...), opts.Minimize)
	b = strconv.AppendInt(append(b, "\x00cmp:"...), int64(opts.Compile.MaxStates), 10)
	b = strconv.AppendInt(append(b, ':'), int64(opts.Compile.MaxRunsPerState), 10)
	b = strconv.AppendInt(append(b, ':'), int64(opts.Compile.MaxDecisionsPerRun), 10)
	b = strconv.AppendInt(append(b, "\x00emit:"...), int64(len(emits)), 10)
	for _, ph := range emits {
		b = appendPart(b, string(ph))
	}
	return sumKey(appendPart(b, goPkg))
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
	var buf [keyBufSize]byte
	b := strconv.AppendInt(append(buf[:0], "ecl-env:c"...), snapCodecVersion, 10)
	for _, d := range file.Decls {
		if _, isMod := d.(*ast.ModuleDecl); isMod {
			continue
		}
		b = appendPart(b, ast.String(d))
	}
	return sumKey(b)
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
	return fingerprints(EnvFingerprint(file), low)
}

// fingerprints is Fingerprints over an already computed environment
// fingerprint: every module of a file shares one, so a batch computes
// it once per file (see unit.envFP).
func fingerprints(envFP string, low *lower.Result) (structural, data string, err error) {
	// The structural key hashes the environment fingerprint and the
	// lowered snapshot without bodies, written in place behind it. The
	// recursive appender keeps the buffer off the stack, so it starts
	// at a size that holds a typical module's snapshot.
	b := strconv.AppendInt(append(make([]byte, 0, 2048), "ecl-struct:c"...), snapCodecVersion, 10)
	b = appendPart(b, envFP)
	mark := len(b)
	if b, err = appendLowered(b, low, false); err != nil {
		return "", "", err
	}
	structural = sumKey(sealPart(b, mark))

	// The data key hashes each function's name, label and printed body,
	// lines joined by newlines: the funcSnap fields EncodeLowered
	// stores, so it matches the stored snapshot's functions exactly.
	var dbuf [keyBufSize]byte
	d := strconv.AppendInt(append(dbuf[:0], "ecl-data:c"...), snapCodecVersion, 10)
	for _, f := range low.Module.Funcs {
		d = appendPart(appendPart(d, f.Name), f.B.Label)
		mark := len(d)
		d = sealPart(appendFuncBody(d, f), mark)
	}
	return structural, sumKey(d), nil
}
