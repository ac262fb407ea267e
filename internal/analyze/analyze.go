// Package analyze is the ECL static analyzer: a rule engine that walks
// a compiled design's three IR levels — the semantic tables (sem), the
// Esterel kernel IR (kernel), and the compiled EFSM — and reports
// structured findings with stable rule IDs, severities, and source
// positions.
//
// This is the paper's core pitch ("catch system-level specification
// errors early, before simulation") turned into a workload: every rule
// diagnoses a class of specification mistake that would otherwise only
// surface as a silently idle simulation. The analyzer runs as a cached
// pipeline phase (internal/pipeline's "analyze"), through `eclc -vet`,
// and through the batch `eclvet` tool; findings replay from the phase
// cache on warm rebuilds without re-analysis.
//
// Rule IDs are grouped by IR level:
//
//	ECL0xx (x < 10)  semantic tables (unused declarations, dead awaits)
//	ECL01x           kernel IR (emit conflicts, dead code, constant branches)
//	ECL02x           EFSM (unreachable states, dead transitions, idle I/O)
//	ECL03x           value flow (abstract interpretation over the EFSM:
//	                 certain traps, interval-refuted guards, dead stores)
//	ECL04x           design level (whole-file interface wiring, via
//	                 AnalyzeFile over the shared compilation unit)
//
// IDs are stable: a rule is never renumbered, and retired IDs are not
// reused.
//
// Severities: ECL03x findings are "error" — the abstract interpreter
// only reports facts that hold on every concrete run (a guaranteed
// trap, a provably dead transition). Every heuristic rule stays
// "warning".
package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/sem"
	"repro/internal/source"
)

// Finding is one diagnostic produced by the analyzer. All fields are
// plain values so findings serialize losslessly into the phase cache
// (a replayed finding is byte-identical to a fresh one).
type Finding struct {
	// Rule is the stable rule ID, e.g. "ECL001".
	Rule string `json:"rule"`
	// Severity is "error" for certainties (the ECL03x value-flow rules,
	// whose findings hold on every concrete run) and "warning" for
	// heuristic rules.
	Severity string `json:"severity"`
	// File/Line/Col locate the finding; zero values mean the rule has
	// no better anchor than the module itself.
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
	// Module is the analyzed (top-level) module.
	Module string `json:"module,omitempty"`
	// Message describes the problem.
	Message string `json:"message"`
}

// String renders the finding in the grep-friendly one-line form shared
// by eclc -vet and eclvet.
func (f Finding) String() string {
	pos := f.File
	if f.Line > 0 {
		pos = fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
	}
	if pos == "" {
		pos = "<unknown>"
	}
	return fmt.Sprintf("%s: module %s: %s %s: %s", pos, f.Module, f.Rule, f.Severity, f.Message)
}

// Level names the IR level a rule inspects.
type Level string

// IR levels, in pipeline order.
const (
	LevelSem    Level = "sem"
	LevelKernel Level = "kernel"
	LevelEFSM   Level = "efsm"
	// LevelValue rules run the abstract interpreter (internal/analyze/
	// absint) over the compiled EFSM.
	LevelValue Level = "value"
	// LevelDesign rules inspect the whole file's semantic tables at
	// once (AnalyzeFile); they run once per file, not per module.
	LevelDesign Level = "design"
)

// Severities.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Rule describes one analyzer rule.
type Rule struct {
	// ID is the stable rule ID ("ECL001").
	ID string
	// Level is the IR level the rule inspects.
	Level Level
	// Severity is the severity of the rule's findings: "error" for
	// certainties, "warning" for heuristics.
	Severity string
	// Doc is a one-line description of what the rule catches.
	Doc string

	run     func(*pass)     // per-module rules
	runFile func(*filePass) // design-level (per-file) rules
}

// rulesVersion versions the shipped rule set; it is folded into the
// analyze phase's content key so that adding, removing, or changing a
// rule invalidates cached findings.
const rulesVersion = 2

// rules is the shipped rule table, in report order. IDs are stable.
var rules = []Rule{
	{ID: "ECL001", Level: LevelSem, Severity: SeverityWarning, Doc: "signal (interface parameter or local) never referenced in the module body", run: (*pass).unusedSignals},
	{ID: "ECL002", Level: LevelSem, Severity: SeverityWarning, Doc: "variable declared but never referenced", run: (*pass).unusedVars},
	{ID: "ECL003", Level: LevelSem, Severity: SeverityWarning, Doc: "data function never called from any module", run: (*pass).unusedFuncs},
	{ID: "ECL004", Level: LevelSem, Severity: SeverityWarning, Doc: "await/present tests a non-input signal that is never emitted (can never hold)", run: (*pass).deadAwaits},
	{ID: "ECL010", Level: LevelKernel, Severity: SeverityWarning, Doc: "valued signal emitted by two parallel branches (same-instant write-write conflict)", run: (*pass).emitConflicts},
	{ID: "ECL011", Level: LevelKernel, Severity: SeverityWarning, Doc: "unreachable code after a statement that never terminates (halt, non-exiting loop)", run: (*pass).deadCode},
	{ID: "ECL012", Level: LevelKernel, Severity: SeverityWarning, Doc: "data branch condition is compile-time constant", run: (*pass).constBranches},
	{ID: "ECL020", Level: LevelEFSM, Severity: SeverityWarning, Doc: "state reachable only through transitions with unsatisfiable guards (syntactic; value-refuted states are ECL034)", run: (*pass).unreachableStates},
	{ID: "ECL021", Level: LevelEFSM, Severity: SeverityWarning, Doc: "transition guard is unsatisfiable (contradictory data conditions; value-refuted guards are ECL033)", run: (*pass).deadTransitions},
	{ID: "ECL022", Level: LevelEFSM, Severity: SeverityWarning, Doc: "input signal never tested or read by any reachable transition", run: (*pass).idleInputs},
	{ID: "ECL023", Level: LevelEFSM, Severity: SeverityWarning, Doc: "output signal never emitted by any reachable transition", run: (*pass).idleOutputs},
	{ID: "ECL030", Level: LevelValue, Severity: SeverityError, Doc: "division or modulo whose divisor is provably always zero (guaranteed runtime trap)", run: (*pass).divByZero},
	{ID: "ECL031", Level: LevelValue, Severity: SeverityError, Doc: "shift count provably outside 0..31 before the runtime's &31 mask", run: (*pass).shiftRange},
	{ID: "ECL032", Level: LevelValue, Severity: SeverityError, Doc: "signed arithmetic whose exact result provably never fits int32 (certain silent wrap)", run: (*pass).certainWrap},
	{ID: "ECL033", Level: LevelValue, Severity: SeverityError, Doc: "transition guard condition refuted by interval analysis (the transition can never fire)", run: (*pass).refutedTransitions},
	{ID: "ECL034", Level: LevelValue, Severity: SeverityError, Doc: "state no value-consistent execution can enter (per-transition satisfiability says reachable, intervals refute it)", run: (*pass).valueUnreachableStates},
	{ID: "ECL035", Level: LevelValue, Severity: SeverityError, Doc: "dead store: variable written then rewritten with no read on any feasible path", run: (*pass).deadStores},
	{ID: "ECL040", Level: LevelDesign, Severity: SeverityWarning, Doc: "signal read or tested across modules but emitted by no module in the design", runFile: (*filePass).undrivenSignals},
	{ID: "ECL041", Level: LevelDesign, Severity: SeverityWarning, Doc: "signal emitted across modules but read by no module in the design", runFile: (*filePass).unobservedSignals},
}

// Rules returns the shipped rule table, in report order.
func Rules() []Rule {
	out := make([]Rule, len(rules))
	copy(out, rules)
	return out
}

// RuleIDs returns every shipped rule ID, in report order.
func RuleIDs() []string {
	ids := make([]string, len(rules))
	for i, r := range rules {
		ids[i] = r.ID
	}
	return ids
}

// KeySalt fingerprints the shipped rule set for the analyze phase's
// content key: same salt, same findings for the same design.
func KeySalt() string { return keySalt }

// keySalt is KeySalt's value, built once from the fixed rule table:
// "ecl-analyze:v<rulesVersion>" then ":<ID>=<severity>" per rule.
var keySalt = func() string {
	b := []byte("ecl-analyze:v" + strconv.Itoa(rulesVersion))
	for _, r := range rules {
		b = append(append(append(append(b, ':'), r.ID...), '='), r.Severity...)
	}
	return string(b)
}()

// Analyze runs every rule over a compiled design and returns the
// findings sorted by position, rule, and message (a deterministic
// order, so cached findings diff cleanly against fresh ones).
func Analyze(d *core.Design) []Finding {
	p := &pass{design: d, module: d.Lowered.Module.Name}
	for _, r := range rules {
		if r.run == nil {
			continue // design-level rule: runs through AnalyzeFile
		}
		p.rule = r
		r.run(p)
	}
	Sort(p.findings)
	return p.findings
}

// AnalyzeFile runs the design-level (per-file) rules over a file's
// semantic tables and returns the findings sorted. Batch drivers call
// this once per shared compilation unit, not once per module.
func AnalyzeFile(info *sem.Info) []Finding {
	if info == nil {
		return nil
	}
	fp := &filePass{info: info}
	for _, r := range rules {
		if r.runFile == nil {
			continue
		}
		fp.rule = r
		r.runFile(fp)
	}
	Sort(fp.findings)
	return fp.findings
}

// Filter keeps only findings whose rule ID is in keep (nil keeps
// everything).
func Filter(fs []Finding, keep []string) []Finding {
	if keep == nil {
		return fs
	}
	want := make(map[string]bool, len(keep))
	for _, id := range keep {
		want[id] = true
	}
	out := fs[:0:0]
	for _, f := range fs {
		if want[f.Rule] {
			out = append(out, f)
		}
	}
	return out
}

// FilterSeverity keeps only findings with the given severity (""
// keeps everything).
func FilterSeverity(fs []Finding, severity string) []Finding {
	if severity == "" {
		return fs
	}
	out := fs[:0:0]
	for _, f := range fs {
		if f.Severity == severity {
			out = append(out, f)
		}
	}
	return out
}

// Sort orders findings by file, line, column, rule, message, then
// module, so findings tie only when they print the same: a batch's
// merged findings come out in one order whatever order its files were
// built in.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		return a.Module < b.Module
	})
}

// Encode serializes findings for the analyze phase's cache snapshot.
func Encode(fs []Finding) ([]byte, error) {
	if fs == nil {
		fs = []Finding{}
	}
	return json.Marshal(fs)
}

// Decode is Encode's inverse; an undecodable blob reports an error so
// the phase degrades to a re-analysis.
func Decode(data []byte) ([]Finding, error) {
	var fs []Finding
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, err
	}
	return fs, nil
}

// pass carries one analysis run's state.
type pass struct {
	design   *core.Design
	module   string
	rule     Rule
	findings []Finding

	// Memoized per-design fact tables shared across rules.
	sem      *semUse
	semDone  bool
	efsm     *efsmFacts
	efsmDone bool
}

// report records one finding for the current rule.
func (p *pass) report(pos source.Pos, format string, args ...interface{}) {
	sev := p.rule.Severity
	if sev == "" {
		sev = SeverityWarning
	}
	f := Finding{
		Rule:     p.rule.ID,
		Severity: sev,
		Module:   p.module,
		Message:  fmt.Sprintf(format, args...),
	}
	if pos.IsValid() {
		f.File = pos.File.Name
		f.Line = pos.Line()
		f.Col = pos.Column()
	}
	p.findings = append(p.findings, f)
}

// modulePos is the fallback anchor: the analyzed module's declaration.
func (p *pass) modulePos() source.Pos {
	if mi := p.design.Lowered.Info.Modules[p.module]; mi != nil && mi.Decl != nil {
		return mi.Decl.Pos()
	}
	return source.Pos{}
}
