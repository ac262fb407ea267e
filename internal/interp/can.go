package interp

import "repro/internal/kernel"

// This file implements the Can analysis used to resolve signal absence
// at quiescence: which signals could still be emitted in the current
// instant by code that has not run yet. It follows Esterel's Can
// function, instant-bounded: walking into a statement stops at the
// first unavoidable pause, and a sequence's tail is reachable only if
// its head can terminate instantly. The result over-approximates
// emissions (data conditions count both arms), which keeps absence
// resolution sound.

// canInfo is the memoized start-analysis of one node.
type canInfo struct {
	emits   map[*kernel.Signal]bool
	canTerm bool
}

// canStart returns the signals s could emit if started this instant,
// and whether it could terminate (or exit) within the instant.
func (m *Machine) canStart(s kernel.Stmt) canInfo {
	if s == nil {
		return canInfo{canTerm: true}
	}
	if ci, ok := m.canStartMemo[s]; ok {
		return ci
	}
	ci := m.canStartCompute(s)
	m.canStartMemo[s] = ci
	return ci
}

func union(dst map[*kernel.Signal]bool, src map[*kernel.Signal]bool) map[*kernel.Signal]bool {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[*kernel.Signal]bool, len(src))
	}
	for k := range src {
		dst[k] = true
	}
	return dst
}

func (m *Machine) canStartCompute(s kernel.Stmt) canInfo {
	switch s := s.(type) {
	case *kernel.Nothing, *kernel.Assign, *kernel.Eval, *kernel.DataCall:
		return canInfo{canTerm: true}
	case *kernel.Emit:
		return canInfo{emits: map[*kernel.Signal]bool{s.Sig: true}, canTerm: true}
	case *kernel.Pause, *kernel.Halt, *kernel.Await:
		return canInfo{canTerm: false}
	case *kernel.Exit:
		// Treated as "can terminate" so enclosing continuations stay
		// reachable (a sound over-approximation).
		return canInfo{canTerm: true}
	case *kernel.Seq:
		var out canInfo
		out.canTerm = true
		for _, c := range s.List {
			ci := m.canStart(c)
			out.emits = union(out.emits, ci.emits)
			if !ci.canTerm {
				out.canTerm = false
				break
			}
		}
		return out
	case *kernel.Loop:
		body := m.canStart(s.Body)
		// A loop never terminates normally; it can only leave via an
		// exit somewhere in its body.
		return canInfo{emits: body.emits, canTerm: m.hasExit[s]}
	case *kernel.Par:
		var out canInfo
		out.canTerm = true
		for _, b := range s.Branches {
			ci := m.canStart(b)
			out.emits = union(out.emits, ci.emits)
			out.canTerm = out.canTerm && ci.canTerm
		}
		if m.hasExit[s] {
			out.canTerm = true
		}
		return out
	case *kernel.Present:
		t := m.canStart(s.Then)
		e := m.canStart(s.Else)
		return canInfo{emits: union(union(nil, t.emits), e.emits), canTerm: t.canTerm || e.canTerm}
	case *kernel.IfData:
		t := m.canStart(s.Then)
		e := m.canStart(s.Else)
		return canInfo{emits: union(union(nil, t.emits), e.emits), canTerm: t.canTerm || e.canTerm}
	case *kernel.Trap:
		body := m.canStart(s.Body)
		return canInfo{emits: body.emits, canTerm: body.canTerm || m.hasExit[s]}
	case *kernel.Abort:
		// Starting an abort is delayed: only the body runs; the
		// trigger and handler wait for later instants.
		return m.canStart(s.Body)
	case *kernel.Suspend:
		return m.canStart(s.Body)
	case *kernel.Local:
		return m.canStart(s.Body)
	}
	return canInfo{canTerm: true}
}

// canResume returns the signals s could emit when resumed in the
// current control state, and whether it could terminate this instant.
func (m *Machine) canResume(s kernel.Stmt) canInfo {
	cur := m.state
	switch s := s.(type) {
	case *kernel.Pause:
		return canInfo{canTerm: true}
	case *kernel.Halt:
		return canInfo{canTerm: false}
	case *kernel.Await:
		return canInfo{canTerm: true}
	case *kernel.Seq:
		ent := cur.get(s.ID())
		if ent == nil {
			return canInfo{canTerm: true}
		}
		i := ent[0]
		if i >= len(s.List) {
			return canInfo{canTerm: true}
		}
		out := m.canResume(s.List[i])
		if !out.canTerm {
			return out
		}
		for _, c := range s.List[i+1:] {
			ci := m.canStart(c)
			out.emits = union(out.emits, ci.emits)
			if !ci.canTerm {
				out.canTerm = false
				return out
			}
		}
		return out
	case *kernel.Loop:
		body := m.canResume(s.Body)
		if body.canTerm {
			again := m.canStart(s.Body)
			body.emits = union(body.emits, again.emits)
			body.canTerm = m.hasExit[s]
		}
		return body
	case *kernel.Par:
		ent := cur.get(s.ID())
		if ent == nil {
			return canInfo{canTerm: true}
		}
		out := canInfo{canTerm: true}
		for i, b := range s.Branches {
			if i < len(ent) && ent[i] == 1 {
				ci := m.canResume(b)
				out.emits = union(out.emits, ci.emits)
				out.canTerm = out.canTerm && ci.canTerm
			}
		}
		if m.hasExit[s] {
			out.canTerm = true
		}
		return out
	case *kernel.Present:
		ent := cur.get(s.ID())
		if ent == nil {
			return canInfo{canTerm: true}
		}
		arm := s.Then
		if ent[0] == 2 {
			arm = s.Else
		}
		return m.canResume(arm)
	case *kernel.IfData:
		ent := cur.get(s.ID())
		if ent == nil {
			return canInfo{canTerm: true}
		}
		arm := s.Then
		if ent[0] == 2 {
			arm = s.Else
		}
		return m.canResume(arm)
	case *kernel.Trap:
		body := m.canResume(s.Body)
		return canInfo{emits: body.emits, canTerm: body.canTerm || m.hasExit[s]}
	case *kernel.Exit:
		return canInfo{canTerm: true}
	case *kernel.Abort:
		ent := cur.get(s.ID())
		if ent == nil {
			return canInfo{canTerm: true}
		}
		if ent[0] == 2 {
			return m.canResume(s.Handler)
		}
		// Trigger undetermined: either the handler starts (strong),
		// the body runs then the handler (weak), or the body resumes.
		body := m.canResume(s.Body)
		h := m.canStart(s.Handler)
		return canInfo{
			emits:   union(union(nil, body.emits), h.emits),
			canTerm: body.canTerm || h.canTerm || s.Handler == nil,
		}
	case *kernel.Suspend:
		// Either frozen (no emissions, no termination) or resumed.
		return m.canResume(s.Body)
	case *kernel.Local:
		return m.canResume(s.Body)
	case nil:
		return canInfo{canTerm: true}
	}
	// Leaf data actions in resume position cannot occur, but be safe.
	return m.canStart(s)
}

// addCan adds to can, which must be non-nil, the signals a blocked or
// joining thread could still emit this instant: a blocked test's
// statement from the test on, either outcome; then, if that can
// terminate, the rest of each enclosing sequence and each enclosing
// loop's next iteration, which the thread's frames name innermost
// first, up to the first statement that cannot terminate within the
// instant.
func (th *thread) addCan(can map[*kernel.Signal]bool) {
	m := th.r.m
	if th.state == thBlockedSig {
		// A present tests only when it starts; an await, an abort or a
		// suspend only when it resumes.
		var local canInfo
		if _, ok := th.blockedAt.(*kernel.Present); ok {
			local = m.canStart(th.blockedAt)
		} else {
			local = m.canResume(th.blockedAt)
		}
		union(can, local.emits)
		if !local.canTerm {
			return
		}
	}
	for _, f := range th.frames {
		var rest []kernel.Stmt
		switch s := f.s.(type) {
		case *kernel.Seq:
			rest = s.List[f.i+1:]
		case *kernel.Loop:
			rest = []kernel.Stmt{s}
		}
		for _, item := range rest {
			ci := m.canStart(item)
			union(can, ci.emits)
			if !ci.canTerm {
				return
			}
		}
	}
}
