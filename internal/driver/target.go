package driver

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// Target names one artifact the driver can emit for a compiled module.
type Target string

// Artifact targets, mirroring the paper's outputs: the reactive part
// as Esterel, software synthesis in C or Go, the C glue header,
// Graphviz DOT of the EFSM, hardware synthesis to Verilog or VHDL, and
// a human-readable stats summary.
const (
	TargetEsterel Target = "esterel"
	TargetC       Target = "c"
	TargetGo      Target = "go"
	TargetGlue    Target = "glue"
	TargetDot     Target = "dot"
	TargetTable   Target = "table"
	TargetVerilog Target = "verilog"
	TargetVHDL    Target = "vhdl"
	TargetStats   Target = "stats"
)

// AllTargets lists every target the driver knows, in a stable order.
func AllTargets() []Target {
	return []Target{TargetEsterel, TargetC, TargetGo, TargetGlue,
		TargetDot, TargetTable, TargetVerilog, TargetVHDL, TargetStats}
}

// ParseTargets parses a comma-separated target list (as accepted by
// eclc's -target flag), ignoring empty items and deduplicating
// repeats (first occurrence wins the position).
func ParseTargets(s string) ([]Target, error) {
	var out []Target
	seen := map[Target]bool{}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		t := Target(item)
		switch t {
		case TargetEsterel, TargetC, TargetGo, TargetGlue,
			TargetDot, TargetTable, TargetVerilog, TargetVHDL, TargetStats:
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		default:
			return nil, fmt.Errorf("unknown target %q", item)
		}
	}
	return out, nil
}

// Filename returns the conventional output file name for a target
// applied to a module ("" for stats, which goes to the console).
func (t Target) Filename(module string) string {
	switch t {
	case TargetEsterel:
		return module + ".strl"
	case TargetC:
		return module + ".c"
	case TargetGo:
		return module + "_gen.go"
	case TargetGlue:
		return module + "_glue.h"
	case TargetDot:
		return module + ".dot"
	case TargetTable:
		return module + ".efsmtab"
	case TargetVerilog:
		return module + ".v"
	case TargetVHDL:
		return module + ".vhd"
	}
	return ""
}

// FormatStats renders the design's size metrics in eclc's console
// layout.
func FormatStats(d *core.Design) string { return pipeline.FormatStats(d) }
