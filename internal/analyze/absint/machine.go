package absint

import (
	"repro/internal/ast"
	"repro/internal/efsm"
	"repro/internal/kernel"
	"repro/internal/source"
)

// PathFact is the verdict on one root-to-leaf path of one state's
// decision tree, indexed exactly like efsm.Machine.Transitions (then
// before else).
type PathFact struct {
	// Feasible: some interval-consistent execution takes this path.
	Feasible bool
	// Pruned: the caller's syntactic prune callback already refuted the
	// path (the old per-transition analysis sees it too).
	Pruned bool
	// RefIndex, when >= 0, is the index into Transition.Data of the
	// first guard condition the intervals refuted on this path; RefExpr
	// is that condition's expression.
	RefIndex int
	RefExpr  ast.Expr
}

// Trap is one certain runtime event found during the reporting pass.
type Trap struct {
	Kind   TrapKind
	Pos    source.Pos
	Expr   ast.Expr
	Detail string
}

// Result is the converged analysis of one machine.
type Result struct {
	// Reachable holds the states some interval-consistent run enters.
	Reachable map[*efsm.State]bool
	// In is each reachable state's converged entry store.
	In map[*efsm.State]*Store
	// Paths are the per-state path verdicts under the final stores.
	Paths map[*efsm.State][]PathFact
	// Traps are the certain traps/wraps on feasible paths, deduplicated
	// by (kind, position).
	Traps []Trap
}

// stateJoinWiden is how many growing joins a state's entry store
// absorbs before widening to full type ranges.
const stateJoinWiden = 4

// Analyze runs the worklist fixpoint over (state × store) and then one
// reporting pass per reachable state under the converged stores. The
// optional prune callback flags paths the caller's syntactic analysis
// already refutes (by state and Transitions-order leaf index); those
// paths carry no value flow and their refutations are attributed to
// the syntactic layer, not the intervals.
//
// Certainty discipline: traps and refutations are only recorded during
// the reporting pass, when every store is at its final (widest) value —
// a verdict that holds there holds on every concrete run.
func Analyze(m *efsm.Machine, prune func(s *efsm.State, leaf int) bool) *Result {
	a := &analysis{
		m:     m,
		prune: prune,
		in:    make(map[*efsm.State]*Store),
		joins: make(map[*efsm.State]int),
	}
	if m.Initial != nil {
		a.in[m.Initial] = a.initialStore()
		a.work = append(a.work, m.Initial)
		a.onList = map[*efsm.State]bool{m.Initial: true}
	}
	for steps := 0; len(a.work) > 0 && steps < 10000; steps++ {
		s := a.work[0]
		a.work = a.work[1:]
		a.onList[s] = false
		a.transfer(s, false)
	}
	res := &Result{
		Reachable: make(map[*efsm.State]bool, len(a.in)),
		In:        a.in,
		Paths:     make(map[*efsm.State][]PathFact),
	}
	a.res = res
	a.trapSeen = make(map[trapKey]bool)
	for _, s := range m.States {
		if _, ok := a.in[s]; !ok {
			continue
		}
		res.Reachable[s] = true
		a.transfer(s, true)
	}
	return res
}

type trapKey struct {
	kind TrapKind
	pos  source.Pos
}

type analysis struct {
	m     *efsm.Machine
	prune func(s *efsm.State, leaf int) bool

	in     map[*efsm.State]*Store
	joins  map[*efsm.State]int
	work   []*efsm.State
	onList map[*efsm.State]bool

	// reporting pass state
	res      *Result
	curState *efsm.State
	leaf     int
	trapSeen map[trapKey]bool
}

// initialStore is the machine's boot state: every module variable and
// valued signal zero-initialized, exactly like the concrete runtime's
// cval.New slots.
func (a *analysis) initialStore() *Store {
	st := NewStore()
	for _, v := range a.m.Mod.Vars {
		st.put(st.tab.varSlot(v), zeroOf(v.Type))
	}
	for _, sigs := range [][]*kernel.Signal{a.m.Inputs, a.m.Outputs, a.m.Mod.Locals} {
		for _, sig := range sigs {
			if sig.Type != nil {
				st.put(st.tab.sigSlot(sig), zeroOf(sig.Type))
			}
		}
	}
	return st
}

// transfer abstractly executes one state's decision tree from its
// entry store. In fixpoint mode (report=false) feasible leaves flow
// their stores into successors; in report mode path facts and traps
// are recorded instead.
func (a *analysis) transfer(s *efsm.State, report bool) {
	st := a.in[s].Clone()
	// The environment drives valued inputs: any present input may carry
	// any value this instant.
	for _, sig := range a.m.Inputs {
		if sig.Type != nil {
			st.put(st.tab.sigSlot(sig), topOf(sig.Type))
		}
	}
	it := &Interp{Info: a.m.Info, St: st}
	if report {
		a.curState = s
		it.OnTrap = a.recordTrap
	}
	a.leaf = 0
	a.walkNode(s, s.Root, it, pctx{refIdx: -1}, report)
}

func (a *analysis) recordTrap(kind TrapKind, e ast.Expr, detail string) {
	k := trapKey{kind, e.Pos()}
	if a.trapSeen[k] {
		return
	}
	a.trapSeen[k] = true
	a.res.Traps = append(a.res.Traps, Trap{Kind: kind, Pos: e.Pos(), Expr: e, Detail: detail})
}

// pctx is per-path context threaded down the decision tree by value.
type pctx struct {
	dataIdx int // DataBranch conditions seen so far (Transition.Data index)
	refIdx  int // first interval-refuted condition on this path, or -1
	refExpr ast.Expr
}

func (a *analysis) walkNode(s *efsm.State, n efsm.Node, it *Interp, pc pctx, report bool) {
	switch n := n.(type) {
	case nil:
		return

	case *efsm.ActNode:
		a.applyAction(it, n.Act)
		a.walkNode(s, n.Next, it, pc, report)

	case *efsm.InputBranch:
		// Presence is untracked: both outcomes are possible. Valued
		// tests do not read the value, so the stores only diverge
		// through the subtrees.
		base := it.St
		trapped := it.trapped
		it.St = base.Clone()
		a.walkNode(s, n.Then, it, pc, report)
		it.St = base
		it.trapped = trapped
		a.walkNode(s, n.Else, it, pc, report)

	case *efsm.DataBranch:
		// The condition's side effects happen exactly once, before the
		// split — mirroring the concrete single evaluation.
		cv := it.Eval(n.Expr.B, n.Expr.E)
		base := it.St
		trapped := it.trapped
		next := pc
		next.dataIdx = pc.dataIdx + 1

		thenPC := next
		it.St = base.Clone()
		wasBot := it.St.Bot
		it.assume(n.Expr.B, n.Expr.E, cv, true)
		if report && !wasBot && it.St.Bot && pc.refIdx < 0 {
			thenPC.refIdx = pc.dataIdx
			thenPC.refExpr = n.Expr.E
		}
		a.walkNode(s, n.Then, it, thenPC, report)

		elsePC := next
		it.St = base
		it.trapped = trapped
		wasBot = it.St.Bot
		it.assume(n.Expr.B, n.Expr.E, cv, false)
		if report && !wasBot && it.St.Bot && pc.refIdx < 0 {
			elsePC.refIdx = pc.dataIdx
			elsePC.refExpr = n.Expr.E
		}
		a.walkNode(s, n.Else, it, elsePC, report)

	case *efsm.Leaf:
		idx := a.leaf
		a.leaf++
		feasible := !it.St.Bot
		pruned := a.prune != nil && a.prune(s, idx)
		if report {
			a.res.Paths[s] = append(a.res.Paths[s], PathFact{
				Feasible: feasible && !pruned,
				Pruned:   pruned,
				RefIndex: pc.refIdx,
				RefExpr:  pc.refExpr,
			})
			return
		}
		if feasible && !pruned && n.To != nil {
			a.flowInto(n.To, it.St)
		}
	}
}

func (a *analysis) applyAction(it *Interp, act efsm.Action) {
	if it.St.Bot {
		return
	}
	switch act.Kind {
	case efsm.ActEmit:
		if act.Sig != nil && act.Sig.Type != nil && act.Value != nil {
			v := it.Eval(act.Value.B, act.Value.E)
			it.St.SetSig(act.Sig, v)
		}
	case efsm.ActAssign:
		r := it.lvalue(act.LHS.B, act.LHS.E)
		src := it.Eval(act.RHS.B, act.RHS.E)
		it.writeRef(act.LHS.B, r, src)
	case efsm.ActEval:
		it.Eval(act.X.B, act.X.E)
	case efsm.ActCall:
		if act.F != nil {
			// Extracted data functions run frameless at module scope,
			// exactly like dataexec.ExecDataFunc.
			it.ExecStmts(act.F.B, act.F.Body)
		}
	}
}

// flowInto joins a feasible leaf's store into the successor's entry
// store, widening after a few growing joins, and requeues the
// successor when its entry changed.
func (a *analysis) flowInto(to *efsm.State, st *Store) {
	cur, ok := a.in[to]
	if !ok {
		a.in[to] = st.Clone()
		a.enqueue(to)
		return
	}
	var prev *Store // only the widening join needs the entry it grew from
	if a.joins[to]+1 >= stateJoinWiden {
		prev = cur.Clone()
	}
	if !cur.JoinWith(st) {
		return
	}
	a.joins[to]++
	if a.joins[to] >= stateJoinWiden {
		cur.WidenFrom(prev)
	}
	a.enqueue(to)
}

func (a *analysis) enqueue(s *efsm.State) {
	if a.onList == nil {
		a.onList = make(map[*efsm.State]bool)
	}
	if a.onList[s] {
		return
	}
	a.onList[s] = true
	a.work = append(a.work, s)
}
