// Package cost estimates implementation metrics for a MIPS R3000-class
// target — the processor the paper's Table 1 reports. It prices a
// compiled EFSM as a software image (code and data bytes) and scales
// dynamic execution work into clock cycles; it also models the memory
// footprint and per-operation cycle costs of the small real-time
// kernel used by the asynchronous (multi-task) partitions.
//
// All constants live in Model, with the rationale documented next to
// each. The absolute values are calibrated to 1999-era POLIS-style
// synthesis (fixed-point, no cache modeling); the experiments depend
// only on their relative magnitudes.
package cost

import (
	"repro/internal/ast"
	"repro/internal/efsm"
	"repro/internal/kernel"
	"repro/internal/sem"
)

// Model holds every target constant. The zero value is unusable; call
// Default.
type Model struct {
	// --- software image (bytes) ---

	// FuncPrologue prices a function's entry/exit (save/restore ra,
	// stack adjust): 4 instructions.
	FuncPrologue int
	// StateDispatch prices one jump-table entry plus the indexed jump
	// amortized per state.
	StateDispatch int
	// BranchBytes prices a presence test (load flag + branch): 3
	// instructions.
	BranchBytes int
	// ActionBytes prices a pure emit (set flag + record): 2
	// instructions.
	ActionBytes int
	// LeafBytes prices the state update and return jump.
	LeafBytes int
	// ExprOpBytes prices one C operator or operand access (MIPS is a
	// load/store ISA: roughly one instruction per operand, one per op).
	ExprOpBytes int
	// StmtOverheadBytes prices statement glue (branches of if/loops).
	StmtOverheadBytes int
	// CallBytes prices a function call sequence (args + jal + result).
	CallBytes int
	// CopyBytesPerWord prices aggregate copies (lw/sw pair per word).
	CopyBytesPerWord int

	// --- data segment (bytes) ---

	// StateVarBytes is the control-state variable.
	StateVarBytes int
	// PresenceFlagBytes per signal.
	PresenceFlagBytes int
	// TaskStackBytes is the stack reserved per task image.
	TaskStackBytes int

	// --- reaction cycles ---

	// ReactionEntry prices dispatch into the state switch.
	ReactionEntry int
	// NodeCycles prices one decision-tree node visit.
	NodeCycles int
	// UnitCycles scales the work units a table machine charges per
	// reaction (≈1 instruction each; see table.Machine.Cost).
	UnitCycles int

	// --- RTOS (the paper's async partitions run under a small kernel) ---

	// RTOSBaseCode is the resident kernel: scheduler, context switch,
	// event flags, mailboxes, startup.
	RTOSBaseCode int
	// RTOSPerTaskCode prices a task wrapper (entry stub, latch copies).
	RTOSPerTaskCode int
	// RTOSPerChannelCode prices one signal channel's post/fetch stubs.
	RTOSPerChannelCode int
	// RTOSValuedChannelCode adds value-copy code per valued channel.
	RTOSValuedChannelCode int
	// RTOSBaseData is kernel tables (ready queue, current, tick).
	RTOSBaseData int
	// RTOSPerTaskData is a TCB.
	RTOSPerTaskData int
	// RTOSPerChannelData is an event/mailbox control block.
	RTOSPerChannelData int

	// ContextSwitch prices a full register save/restore on R3000.
	ContextSwitch int
	// EventPost prices posting one event to one subscriber.
	EventPost int
	// SchedulerPass prices one ready-queue scan.
	SchedulerPass int
	// TaskDispatch prices entering a task's reaction from the kernel.
	TaskDispatch int
	// IdleTick prices the kernel's per-tick housekeeping.
	IdleTick int
}

// Default returns the calibrated R3000 model.
func Default() *Model {
	return &Model{
		FuncPrologue:      16,
		StateDispatch:     8,
		BranchBytes:       12,
		ActionBytes:       8,
		LeafBytes:         8,
		ExprOpBytes:       6,
		StmtOverheadBytes: 8,
		CallBytes:         16,
		CopyBytesPerWord:  8,

		StateVarBytes:     4,
		PresenceFlagBytes: 1,
		TaskStackBytes:    256,

		ReactionEntry: 8,
		NodeCycles:    2,
		UnitCycles:    1,

		RTOSBaseCode:          4096,
		RTOSPerTaskCode:       224,
		RTOSPerChannelCode:    96,
		RTOSValuedChannelCode: 64,
		RTOSBaseData:          512,
		RTOSPerTaskData:       96,
		RTOSPerChannelData:    24,

		ContextSwitch: 85,
		EventPost:     42,
		SchedulerPass: 28,
		TaskDispatch:  25,
		IdleTick:      12,
	}
}

// Image is a software footprint.
type Image struct {
	CodeBytes int
	DataBytes int
}

// Add accumulates another image.
func (im *Image) Add(o Image) {
	im.CodeBytes += o.CodeBytes
	im.DataBytes += o.DataBytes
}

// SoftwareImage prices one compiled EFSM as an R3000 software image:
// the reaction function generated from the decision trees, the
// extracted data functions, referenced user C functions, and the data
// segment (variables, signal slots, control state).
func (m *Model) SoftwareImage(e *efsm.Machine) Image {
	var im Image
	im.CodeBytes += m.FuncPrologue
	st := e.CollectStats()
	im.CodeBytes += st.States * m.StateDispatch

	for _, s := range e.States {
		im.CodeBytes += m.treeBytes(e, s.Root)
	}
	for _, f := range e.Mod.Funcs {
		im.CodeBytes += m.FuncPrologue
		for _, stm := range f.Body {
			im.CodeBytes += m.stmtBytes(e.Info, stm)
		}
	}
	seen := map[*sem.FuncInfo]bool{}
	for _, fi := range e.Info.Funcs {
		if fi.Decl.Body == nil || seen[fi] {
			continue
		}
		seen[fi] = true
		im.CodeBytes += m.FuncPrologue
		for _, stm := range fi.Decl.Body.Stmts {
			im.CodeBytes += m.stmtBytes(e.Info, stm)
		}
	}

	im.DataBytes += m.StateVarBytes
	for _, v := range e.Mod.Vars {
		im.DataBytes += align4(v.Type.Size())
	}
	for _, s := range e.Mod.Signals() {
		im.DataBytes += m.PresenceFlagBytes
		if !s.Pure && s.Type != nil {
			im.DataBytes += align4(s.Type.Size())
		}
	}
	im.DataBytes = align4(im.DataBytes)
	return im
}

func align4(n int) int { return (n + 3) / 4 * 4 }

func (m *Model) treeBytes(e *efsm.Machine, n efsm.Node) int {
	switch n := n.(type) {
	case nil:
		return 0
	case *efsm.Leaf:
		return m.LeafBytes
	case *efsm.ActNode:
		return m.actionBytes(e, n.Act) + m.treeBytes(e, n.Next)
	case *efsm.InputBranch:
		return m.BranchBytes + m.treeBytes(e, n.Then) + m.treeBytes(e, n.Else)
	case *efsm.DataBranch:
		return m.BranchBytes + m.exprBytes(e.Info, n.Expr.E) + m.treeBytes(e, n.Then) + m.treeBytes(e, n.Else)
	}
	return 0
}

func (m *Model) actionBytes(e *efsm.Machine, a efsm.Action) int {
	switch a.Kind {
	case efsm.ActEmit:
		bytes := m.ActionBytes
		if a.Value != nil {
			bytes += m.exprBytes(e.Info, a.Value.E)
			if a.Sig.Type != nil {
				bytes += m.copyBytes(a.Sig.Type.Size())
			}
		}
		return bytes
	case efsm.ActAssign:
		return m.exprBytes(e.Info, a.LHS.E) + m.exprBytes(e.Info, a.RHS.E) + m.ExprOpBytes
	case efsm.ActEval:
		return m.exprBytes(e.Info, a.X.E)
	case efsm.ActCall:
		return m.CallBytes
	}
	return 0
}

func (m *Model) copyBytes(size int) int {
	words := (size + 3) / 4
	if words > 8 {
		// Large copies call memcpy instead of inlining.
		return m.CallBytes
	}
	return words * m.CopyBytesPerWord
}

// exprBytes estimates instruction bytes for evaluating an expression.
func (m *Model) exprBytes(info *sem.Info, e ast.Expr) int {
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		return m.ExprOpBytes
	case *ast.BasicLit:
		return m.ExprOpBytes / 2
	case *ast.Paren:
		return m.exprBytes(info, e.X)
	case *ast.Unary:
		return m.ExprOpBytes + m.exprBytes(info, e.X)
	case *ast.Postfix:
		return m.ExprOpBytes + m.exprBytes(info, e.X)
	case *ast.Binary:
		return m.ExprOpBytes + m.exprBytes(info, e.X) + m.exprBytes(info, e.Y)
	case *ast.Assign:
		return m.ExprOpBytes + m.exprBytes(info, e.LHS) + m.exprBytes(info, e.RHS)
	case *ast.Cond:
		return 2*m.ExprOpBytes + m.exprBytes(info, e.CondX) + m.exprBytes(info, e.Then) + m.exprBytes(info, e.Else)
	case *ast.Call:
		bytes := m.CallBytes
		for _, a := range e.Args {
			bytes += m.exprBytes(info, a)
		}
		return bytes
	case *ast.Index:
		return m.ExprOpBytes + m.exprBytes(info, e.X) + m.exprBytes(info, e.Sub)
	case *ast.Member:
		return m.ExprOpBytes/2 + m.exprBytes(info, e.X)
	case *ast.Cast:
		return m.ExprOpBytes + m.exprBytes(info, e.X)
	case *ast.SizeofExpr:
		return m.ExprOpBytes / 2
	}
	return m.ExprOpBytes
}

// stmtBytes estimates instruction bytes for a data statement.
func (m *Model) stmtBytes(info *sem.Info, s ast.Stmt) int {
	switch s := s.(type) {
	case nil, *ast.Empty:
		return 0
	case *ast.Block:
		total := 0
		for _, st := range s.Stmts {
			total += m.stmtBytes(info, st)
		}
		return total
	case *ast.VarDecl:
		if s.Init != nil {
			return m.ExprOpBytes + m.exprBytes(info, s.Init)
		}
		return 0
	case *ast.ExprStmt:
		return m.exprBytes(info, s.X)
	case *ast.If:
		return m.StmtOverheadBytes + m.exprBytes(info, s.Cond) + m.stmtBytes(info, s.Then) + m.stmtBytes(info, s.Else)
	case *ast.While:
		return m.StmtOverheadBytes + m.exprBytes(info, s.Cond) + m.stmtBytes(info, s.Body)
	case *ast.DoWhile:
		return m.StmtOverheadBytes + m.exprBytes(info, s.Cond) + m.stmtBytes(info, s.Body)
	case *ast.For:
		return m.StmtOverheadBytes + m.stmtBytes(info, s.Init) + m.exprBytes(info, s.Cond) + m.stmtBytes(info, s.Post) + m.stmtBytes(info, s.Body)
	case *ast.Switch:
		total := m.StmtOverheadBytes + m.exprBytes(info, s.Tag)
		for _, c := range s.Cases {
			total += m.StmtOverheadBytes / 2
			for _, st := range c.Body {
				total += m.stmtBytes(info, st)
			}
		}
		return total
	case *ast.Break, *ast.Continue:
		return 4
	case *ast.Return:
		if s.X != nil {
			return 4 + m.exprBytes(info, s.X)
		}
		return 4
	}
	return m.StmtOverheadBytes
}

// ReactionCycles converts one EFSM step's dynamic counts to cycles.
func (m *Model) ReactionCycles(depth, units int) int {
	return m.ReactionEntry + m.NodeCycles*depth + m.UnitCycles*units
}

// RTOSImage models the kernel's memory footprint for a partition with
// the given number of tasks and channels.
func (m *Model) RTOSImage(tasks, channels, valuedChannels int) Image {
	return Image{
		CodeBytes: m.RTOSBaseCode + tasks*m.RTOSPerTaskCode +
			channels*m.RTOSPerChannelCode + valuedChannels*m.RTOSValuedChannelCode,
		DataBytes: m.RTOSBaseData + tasks*m.RTOSPerTaskData + channels*m.RTOSPerChannelData,
	}
}

// TaskDataBytes adds the per-task stack to a task's image.
func (m *Model) TaskDataBytes() int { return m.TaskStackBytes }

// ChannelsOf counts the signal channels of a kernel module (its
// interface signals), splitting out valued ones.
func ChannelsOf(mod *kernel.Module) (channels, valued int) {
	for _, s := range mod.Signals() {
		channels++
		if !s.Pure && s.Type != nil {
			valued++
		}
	}
	return channels, valued
}
