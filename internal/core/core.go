// Package core is the ECL compiler's public pipeline facade: one entry
// point that runs preprocessing, parsing, semantic analysis, the
// reactive/data split, EFSM compilation, and the back ends (C, Go,
// Esterel artifact, Verilog, VHDL), mirroring the three compilation
// phases of the paper. The root package ecl re-exports it.
package core

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/cgen"
	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/cost"
	"repro/internal/ctypes"
	"repro/internal/efsm"
	"repro/internal/efsm/table"
	"repro/internal/hdl"
	"repro/internal/kernel"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/pp"
	"repro/internal/sem"
	"repro/internal/source"
)

// Options configures a compilation.
type Options struct {
	// Policy selects the splitter scheme (maximal reactive by default).
	Policy lower.Policy
	// Includes resolves #include paths (nil rejects includes).
	Includes map[string]string
	// Defines are predefined object-like macros.
	Defines map[string]string
	// Compile bounds the EFSM exploration (zero values use defaults).
	Compile compile.Options
	// Minimize merges bisimulation-equivalent EFSM states.
	Minimize bool
}

// Program is an analyzed ECL translation unit.
type Program struct {
	File  *ast.File
	Info  *sem.Info
	Diags *source.DiagList
	opts  Options
}

// Parse runs phases 0-1 (preprocess, parse, analyze) over source text.
func Parse(name, src string, opts Options) (*Program, error) {
	var diags source.DiagList
	prep := pp.New(&diags, pp.MapResolver(opts.Includes))
	for k, v := range opts.Defines {
		prep.Define(k, v)
	}
	expanded := prep.Expand(source.NewFile(name, src))
	f := parser.ParseFile(expanded, &diags)
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	info := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	return &Program{File: f, Info: info, Diags: &diags, opts: opts}, nil
}

// NewProgram assembles a Program from already-run front-end phases.
// The pipeline package (internal/pipeline) runs preprocessing/parsing
// and semantic analysis as separate cached phases, then rebuilds the
// Program facade; opts is recorded so Compile behaves as if the
// program had come from Parse.
func NewProgram(f *ast.File, info *sem.Info, diags *source.DiagList, opts Options) *Program {
	return &Program{File: f, Info: info, Diags: diags, opts: opts}
}

// Modules lists the module names declared in the program, in source
// order.
func (p *Program) Modules() []string {
	var names []string
	for _, m := range p.File.Modules() {
		names = append(names, m.Name)
	}
	return names
}

// Design is one compiled module: the kernel split plus the EFSM.
type Design struct {
	Program *Program
	Lowered *lower.Result
	Machine *efsm.Machine
}

// Compile lowers and compiles the named module.
func (p *Program) Compile(module string) (*Design, error) {
	res, err := lower.Lower(p.Info, module, p.opts.Policy, p.Diags)
	if err != nil {
		return nil, err
	}
	m, err := compile.CompileWith(res, p.opts.Compile)
	if err != nil {
		return nil, err
	}
	if p.opts.Minimize {
		m, _ = efsm.Minimize(m)
	}
	return &Design{Program: p, Lowered: res, Machine: m}, nil
}

// EsterelText returns the phase-1 reactive artifact (Esterel-flavored
// source for the kernel module).
func (d *Design) EsterelText() string { return kernel.EsterelString(d.Lowered.Module) }

// CText returns the phase-3 software implementation in C.
func (d *Design) CText() string { return cgen.GenerateC(d.Machine) }

// GoText returns the phase-3 software implementation as a
// self-contained Go package.
func (d *Design) GoText(pkg string) (string, error) { return cgen.GenerateGo(d.Machine, pkg) }

// TableText returns the table-compiled form of the bisimulation-
// minimized EFSM as a deterministic listing: slot layout, state
// dispatch entries, and a flat-bytecode disassembly — a reviewable
// record of exactly what the efsm-table backend executes. The emit
// pipeline caches it like any other artifact.
func (d *Design) TableText() (string, error) {
	min, _ := efsm.Minimize(d.Machine)
	p, err := table.Compile(min)
	if err != nil {
		return "", err
	}
	return p.Listing(), nil
}

// GlueText returns the generated glue declarations: accessors that let
// the reactive part reach non-scalar signal values, which the paper's
// flow emits as a C header.
func (d *Design) GlueText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* Glue declarations generated by eclc for module %s. */\n", d.Machine.Name)
	fmt.Fprintf(&b, "/* The Esterel part accesses ECL data through these. */\n\n")
	for _, s := range d.Lowered.Module.Signals() {
		if s.Pure || s.Type == nil {
			continue
		}
		cn := strings.NewReplacer(".", "_", "-", "_").Replace(s.Name)
		fmt.Fprintf(&b, "%s *ecl_sigval_%s(void);\n", cTypeSpelling(s.Type), cn)
	}
	for _, f := range d.Lowered.Module.Funcs {
		fmt.Fprintf(&b, "void %s(void);\n", strings.NewReplacer(".", "_").Replace(f.Name))
	}
	return b.String()
}

// cTypeSpelling spells a signal's value type as the generated C
// declares it. The C prints aggregates inline, and an inline aggregate
// cannot appear in a prototype, so those become void.
func cTypeSpelling(t ctypes.Type) string {
	s := cgen.CTypeName(t)
	if strings.HasPrefix(s, "struct {") || strings.HasPrefix(s, "union {") {
		return "void"
	}
	return s
}

// Circuit synthesizes the reactive part to a gate-level netlist. It
// fails for modules with a data part (the paper: hardware needs the C
// part empty).
func (d *Design) Circuit() (*circuit.Circuit, error) { return circuit.FromEFSM(d.Machine) }

// VerilogText synthesizes and renders Verilog.
func (d *Design) VerilogText() (string, error) {
	c, err := d.Circuit()
	if err != nil {
		return "", err
	}
	return hdl.VerilogString(c), nil
}

// VHDLText synthesizes and renders VHDL.
func (d *Design) VHDLText() (string, error) {
	c, err := d.Circuit()
	if err != nil {
		return "", err
	}
	return hdl.VHDLString(c), nil
}

// DotText renders the EFSM as Graphviz DOT.
func (d *Design) DotText() string { return d.Machine.Dot() }

// Stats summarizes the compiled design.
type Stats struct {
	KernelStats kernel.Stats
	EFSM        efsm.Stats
	Image       cost.Image
	DataFuncs   int
}

// Stats computes size metrics for the design.
func (d *Design) Stats() Stats {
	model := cost.Default()
	return Stats{
		KernelStats: kernel.CollectStats(d.Lowered.Module),
		EFSM:        d.Machine.CollectStats(),
		Image:       model.SoftwareImage(d.Machine),
		DataFuncs:   len(d.Lowered.Module.Funcs),
	}
}
