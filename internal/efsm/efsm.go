// Package efsm defines the extended finite state machine produced by
// the ECL compiler (internal/compile) from the Esterel kernel IR. The
// table VM (internal/efsm/table) executes it.
//
// Each control state owns a decision tree — the nested case analysis
// an Esterel automaton compiler would emit as C. Interior nodes test
// input presence or a C data condition, action nodes perform emits,
// assignments, and data-function calls in their recorded order, and
// leaves name the successor state. Interleaving actions and tests in
// one tree is what makes the machine an *extended* FSM: data guards
// are evaluated exactly where the original program evaluated them,
// after any earlier actions of the same reaction.
package efsm

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/kernel"
	"repro/internal/sem"
)

// ActionKind discriminates transition actions.
type ActionKind int

// Action kinds.
const (
	// ActEmit emits a signal (optionally valued).
	ActEmit ActionKind = iota
	// ActAssign performs an inline assignment.
	ActAssign
	// ActEval evaluates an expression for side effects.
	ActEval
	// ActCall invokes an extracted data function.
	ActCall
)

// Action is one executed step of a reaction.
type Action struct {
	Kind  ActionKind
	Sig   *kernel.Signal // ActEmit
	Value *kernel.Expr   // ActEmit (nil for pure)
	LHS   kernel.Expr    // ActAssign
	RHS   kernel.Expr    // ActAssign
	X     kernel.Expr    // ActEval
	F     *kernel.DataFunc
}

// String renders the action for DOT labels and debugging.
func (a Action) String() string {
	switch a.Kind {
	case ActEmit:
		if a.Value != nil {
			return fmt.Sprintf("emit %s(%s)", a.Sig.Name, a.Value)
		}
		return "emit " + a.Sig.Name
	case ActAssign:
		return fmt.Sprintf("%s = %s", a.LHS, a.RHS)
	case ActEval:
		return a.X.String()
	case ActCall:
		return a.F.Name + "()"
	}
	return "?"
}

// Node is a decision-tree node.
type Node interface{ efsmNode() }

// ActNode performs an action then continues.
type ActNode struct {
	Act  Action
	Next Node
}

// InputBranch tests an input signal's presence.
type InputBranch struct {
	Sig  *kernel.Signal
	Then Node // present
	Else Node // absent
}

// DataBranch tests a C data condition (evaluated at this point in the
// reaction, after earlier actions).
type DataBranch struct {
	Expr kernel.Expr
	Then Node
	Else Node
}

// Leaf ends the reaction, naming the successor state.
type Leaf struct {
	To       *State
	Terminal bool // the program terminates after this reaction
}

func (*ActNode) efsmNode()     {}
func (*InputBranch) efsmNode() {}
func (*DataBranch) efsmNode()  {}
func (*Leaf) efsmNode()        {}

// State is one EFSM control state.
type State struct {
	ID   int
	Key  string // canonical control-residue key from the interpreter
	Root Node   // nil only while under construction
}

// Machine is a compiled EFSM.
type Machine struct {
	Name    string
	Mod     *kernel.Module
	Info    *sem.Info
	Inputs  []*kernel.Signal
	Outputs []*kernel.Signal
	States  []*State
	Initial *State
}

// Stats summarizes machine size; the cost model prices these.
type Stats struct {
	States       int
	TreeNodes    int
	Branches     int // input + data branches
	DataBranches int
	Actions      int
	Leaves       int // transitions
	MaxDepth     int
}

// CollectStats walks every state tree and tallies sizes.
func (m *Machine) CollectStats() Stats {
	var st Stats
	st.States = len(m.States)
	for _, s := range m.States {
		d := walkStats(s.Root, &st, 0)
		if d > st.MaxDepth {
			st.MaxDepth = d
		}
	}
	return st
}

func walkStats(n Node, st *Stats, depth int) int {
	if n == nil {
		return depth
	}
	st.TreeNodes++
	switch n := n.(type) {
	case *ActNode:
		st.Actions++
		return walkStats(n.Next, st, depth+1)
	case *InputBranch:
		st.Branches++
		d1 := walkStats(n.Then, st, depth+1)
		d2 := walkStats(n.Else, st, depth+1)
		if d2 > d1 {
			return d2
		}
		return d1
	case *DataBranch:
		st.Branches++
		st.DataBranches++
		d1 := walkStats(n.Then, st, depth+1)
		d2 := walkStats(n.Else, st, depth+1)
		if d2 > d1 {
			return d2
		}
		return d1
	case *Leaf:
		st.Leaves++
		return depth
	}
	return depth
}

// Transition is a flattened view of one root-to-leaf path.
type Transition struct {
	From    *State
	To      *State
	Inputs  map[*kernel.Signal]bool // tested input presence along the path
	Data    []DataCond
	Actions []Action
	Term    bool
}

// DataCond is one data condition with its required outcome.
type DataCond struct {
	Expr kernel.Expr
	Want bool
}

// Transitions enumerates all root-to-leaf paths of a state, then
// branches before else branches. Each transition owns its Inputs map
// and its Data and Actions slices; a signal tested twice on one path
// keeps its last outcome.
func (m *Machine) Transitions(s *State) []*Transition {
	var out []*Transition
	type inputTest struct {
		sig  *kernel.Signal
		want bool
	}
	// inputs, data and acts hold the path from the root to the node
	// being walked.
	var inputs []inputTest
	var data []DataCond
	var acts []Action
	var walk func(n Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case *ActNode:
			acts = append(acts, n.Act)
			walk(n.Next)
			acts = acts[:len(acts)-1]
		case *InputBranch:
			inputs = append(inputs, inputTest{n.Sig, true})
			walk(n.Then)
			inputs[len(inputs)-1].want = false
			walk(n.Else)
			inputs = inputs[:len(inputs)-1]
		case *DataBranch:
			data = append(data, DataCond{n.Expr, true})
			walk(n.Then)
			data[len(data)-1].Want = false
			walk(n.Else)
			data = data[:len(data)-1]
		case *Leaf:
			t := &Transition{
				From:    s,
				To:      n.To,
				Inputs:  make(map[*kernel.Signal]bool, len(inputs)),
				Data:    make([]DataCond, len(data)),
				Actions: make([]Action, len(acts)),
				Term:    n.Terminal,
			}
			for _, in := range inputs {
				t.Inputs[in.sig] = in.want
			}
			copy(t.Data, data)
			copy(t.Actions, acts)
			out = append(out, t)
		}
	}
	walk(s.Root)
	return out
}

// GuardString renders a transition guard for display.
func (t *Transition) GuardString() string {
	var parts []string
	var names []string
	for sig := range t.Inputs {
		names = append(names, sig.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		for sig, want := range t.Inputs {
			if sig.Name == name {
				if want {
					parts = append(parts, name)
				} else {
					parts = append(parts, "!"+name)
				}
			}
		}
	}
	for _, dc := range t.Data {
		s := dc.Expr.String()
		if !dc.Want {
			s = "!(" + s + ")"
		}
		parts = append(parts, s)
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, " & ")
}

// WriteDot renders the machine as Graphviz DOT (one edge per leaf).
func (m *Machine) WriteDot(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", m.Name)
	fmt.Fprintf(&b, "  init [shape=point];\n")
	if m.Initial != nil {
		fmt.Fprintf(&b, "  init -> s%d;\n", m.Initial.ID)
	}
	for _, s := range m.States {
		fmt.Fprintf(&b, "  s%d [shape=circle,label=\"s%d\"];\n", s.ID, s.ID)
		for _, t := range m.Transitions(s) {
			label := t.GuardString()
			if len(t.Actions) > 0 {
				var acts []string
				for _, a := range t.Actions {
					if a.Kind == ActEmit {
						acts = append(acts, a.String())
					}
				}
				if len(acts) > 0 {
					label += " / " + strings.Join(acts, ", ")
				}
			}
			to := "end"
			if t.To != nil {
				to = fmt.Sprintf("s%d", t.To.ID)
			}
			fmt.Fprintf(&b, "  s%d -> %s [label=%q];\n", s.ID, to, label)
		}
	}
	fmt.Fprintf(&b, "  end [shape=doublecircle,label=\"\"];\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Dot returns the DOT rendering as a string.
func (m *Machine) Dot() string {
	var b strings.Builder
	_ = m.WriteDot(&b)
	return b.String()
}
