package absint

import (
	"fmt"
	"testing"

	"repro/internal/ctypes"
	"repro/internal/kernel"
	"repro/internal/sem"
)

// refStore is the map-keyed store the slot vector replaced. It is the
// reference FuzzStoreOps compares Store against, operation by
// operation.
type refStore struct {
	Bot   bool
	Vars  map[*kernel.Var]Val
	Sigs  map[*kernel.Signal]Val
	Frame map[*sem.VarInfo]Val
}

func newRefStore() *refStore {
	return &refStore{
		Vars: make(map[*kernel.Var]Val),
		Sigs: make(map[*kernel.Signal]Val),
	}
}

func (s *refStore) Clone() *refStore {
	c := &refStore{
		Bot:  s.Bot,
		Vars: make(map[*kernel.Var]Val, len(s.Vars)),
		Sigs: make(map[*kernel.Signal]Val, len(s.Sigs)),
	}
	for k, v := range s.Vars {
		c.Vars[k] = v
	}
	for k, v := range s.Sigs {
		c.Sigs[k] = v
	}
	if s.Frame != nil {
		c.Frame = make(map[*sem.VarInfo]Val, len(s.Frame))
		for k, v := range s.Frame {
			c.Frame[k] = v
		}
	}
	return c
}

func (s *refStore) SetBot() { s.Bot = true }

func (s *refStore) VarVal(v *kernel.Var) Val {
	if s.Bot {
		return Bot()
	}
	if val, ok := s.Vars[v]; ok {
		return val
	}
	return topOf(v.Type)
}

func (s *refStore) SetVar(v *kernel.Var, val Val) {
	if s.Bot {
		return
	}
	s.Vars[v] = inSpace(val, v.Type)
}

func (s *refStore) SigVal(sig *kernel.Signal) Val {
	if s.Bot {
		return Bot()
	}
	if val, ok := s.Sigs[sig]; ok {
		return val
	}
	return topOf(sig.Type)
}

func (s *refStore) SetSig(sig *kernel.Signal, val Val) {
	if s.Bot {
		return
	}
	s.Sigs[sig] = inSpace(val, sig.Type)
}

func (s *refStore) FrameVal(vi *sem.VarInfo) (Val, bool) {
	if s.Frame == nil {
		return Val{}, false
	}
	v, ok := s.Frame[vi]
	return v, ok
}

func (s *refStore) SetFrame(vi *sem.VarInfo, val Val) {
	if s.Bot {
		return
	}
	if s.Frame == nil {
		s.Frame = make(map[*sem.VarInfo]Val)
	}
	s.Frame[vi] = inSpace(val, vi.Type)
}

// restoreFrame is evalCall's restore loop over the map frame; the
// frame is allocated when missing, where the original indexed a nil
// map only on paths the interpreter never takes.
func (s *refStore) restoreFrame(vi *sem.VarInfo, val Val, existed bool) {
	if existed {
		if s.Frame == nil {
			s.Frame = make(map[*sem.VarInfo]Val)
		}
		s.Frame[vi] = val
	} else if s.Frame != nil {
		delete(s.Frame, vi)
	}
}

func (s *refStore) HavocVars() {
	for v := range s.Vars {
		s.Vars[v] = topOf(v.Type)
	}
	for vi := range s.Frame {
		s.Frame[vi] = topOf(vi.Type)
	}
}

func (s *refStore) JoinWith(o *refStore) bool {
	if o == nil || o.Bot {
		return false
	}
	if s.Bot {
		s.Bot = false
		s.Vars = make(map[*kernel.Var]Val, len(o.Vars))
		for k, v := range o.Vars {
			s.Vars[k] = v
		}
		s.Sigs = make(map[*kernel.Signal]Val, len(o.Sigs))
		for k, v := range o.Sigs {
			s.Sigs[k] = v
		}
		s.Frame = nil
		if o.Frame != nil {
			s.Frame = make(map[*sem.VarInfo]Val, len(o.Frame))
			for k, v := range o.Frame {
				s.Frame[k] = v
			}
		}
		return true
	}
	changed := false
	for k, ov := range o.Vars {
		nv := join(s.Vars[k], ov)
		if nv != s.Vars[k] {
			s.Vars[k] = nv
			changed = true
		}
	}
	for k, ov := range o.Sigs {
		nv := join(s.Sigs[k], ov)
		if nv != s.Sigs[k] {
			s.Sigs[k] = nv
			changed = true
		}
	}
	for vi, ov := range o.Frame {
		cur, ok := s.Frame[vi]
		if !ok {
			s.SetFrame(vi, ov)
			continue
		}
		nv := join(cur, ov)
		if nv != cur {
			s.Frame[vi] = nv
			changed = true
		}
	}
	return changed
}

func (s *refStore) WidenFrom(prev *refStore) {
	if s.Bot || prev == nil || prev.Bot {
		return
	}
	for k, v := range s.Vars {
		if pv, ok := prev.Vars[k]; !ok || v != pv {
			s.Vars[k] = topOf(k.Type)
		}
	}
	for k, v := range s.Sigs {
		if pv, ok := prev.Sigs[k]; !ok || v != pv {
			s.Sigs[k] = topOf(k.Type)
		}
	}
	for vi, v := range s.Frame {
		if pv, ok := prev.Frame[vi]; !ok || v != pv {
			s.Frame[vi] = topOf(vi.Type)
		}
	}
}

// The fuzzed slots: variables, signals and frame variables of mixed
// integer widths and signedness, plus one untracked (float) type each.
var (
	fuzzVars = []*kernel.Var{
		{Name: "i", Type: ctypes.Int}, {Name: "u8", Type: ctypes.UChar},
		{Name: "b", Type: ctypes.Bool}, {Name: "f", Type: ctypes.Float},
	}
	fuzzSigs = []*kernel.Signal{
		{Name: "S", Type: ctypes.Int}, {Name: "C", Type: ctypes.Char},
		{Name: "F", Type: ctypes.Float},
	}
	fuzzFrames = []*sem.VarInfo{
		{Name: "p", Type: ctypes.UInt}, {Name: "q", Type: ctypes.Char},
		{Name: "r", Type: ctypes.Float},
	}
	fuzzBounds = []int64{
		-1 << 32, -1 << 31, -129, -128, -1, 0, 1, 2, 7, 127, 128, 255, 256,
		1<<31 - 1, 1 << 31, 1<<32 - 1,
	}
)

// fuzzOps decodes a byte string into store operations.
type fuzzOps struct{ data []byte }

func (d *fuzzOps) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *fuzzOps) val() Val {
	switch d.byte() % 4 {
	case 0:
		return Bot()
	case 1:
		return Top()
	case 2:
		return Const(fuzzBounds[int(d.byte())%len(fuzzBounds)])
	}
	lo := fuzzBounds[int(d.byte())%len(fuzzBounds)]
	hi := fuzzBounds[int(d.byte())%len(fuzzBounds)]
	return Interval(lo, hi)
}

// FuzzStoreOps runs random operation sequences on three Store
// registers and on three reference stores side by side, and after every
// operation compares every slot read and every JoinWith change flag.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 4, 4, 1, 0, 5, 0, 1})
	f.Add([]byte{2, 0, 0, 3, 5, 3, 2, 1, 0, 1, 1, 5, 2, 1, 8, 1, 5, 1, 2})
	f.Add([]byte{8, 0, 5, 0, 1, 2, 1, 1, 2, 9, 6, 0, 1, 7, 0, 3, 0, 0, 0, 1, 1})
	f.Add([]byte{2, 1, 2, 2, 8, 2, 3, 1, 0, 3, 4, 5, 6, 1, 0, 4, 2, 0, 5, 2, 0, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzOps{data: data}
		root := NewStore()
		stores := []*Store{root, root.Clone(), root.Clone()}
		refs := []*refStore{newRefStore(), newRefStore(), newRefStore()}
		for step := 0; len(d.data) > 0 && step < 200; step++ {
			op, i := d.byte()%10, int(d.byte())%len(stores)
			var arg any // the operation's operand, for failure messages
			switch op {
			case 0:
				v, val := fuzzVars[int(d.byte())%len(fuzzVars)], d.val()
				arg = [2]any{v.Name, val}
				stores[i].SetVar(v, val)
				refs[i].SetVar(v, val)
			case 1:
				s, val := fuzzSigs[int(d.byte())%len(fuzzSigs)], d.val()
				arg = [2]any{s.Name, val}
				stores[i].SetSig(s, val)
				refs[i].SetSig(s, val)
			case 2:
				vi, val := fuzzFrames[int(d.byte())%len(fuzzFrames)], d.val()
				arg = [2]any{vi.Name, val}
				stores[i].SetFrame(vi, val)
				refs[i].SetFrame(vi, val)
			case 3: // a call's exit putting back or dropping a frame slot
				vi, val, existed := fuzzFrames[int(d.byte())%len(fuzzFrames)], d.val(), d.byte()%2 == 0
				arg = [3]any{vi.Name, val, existed}
				stores[i].restoreFrame(vi, val, existed)
				refs[i].restoreFrame(vi, val, existed)
			case 4: // clone register j into i
				j := int(d.byte()) % len(stores)
				arg = j
				stores[i], refs[i] = stores[j].Clone(), refs[j].Clone()
			case 5: // join register j into i
				j := int(d.byte()) % len(stores)
				arg = j
				if got, want := stores[i].JoinWith(stores[j]), refs[i].JoinWith(refs[j]); got != want {
					t.Fatalf("step %d: JoinWith(%d) into %d: changed = %v, reference %v", step, j, i, got, want)
				}
			case 6: // widen i from register j
				j := int(d.byte()) % len(stores)
				arg = j
				stores[i].WidenFrom(stores[j])
				refs[i].WidenFrom(refs[j])
			case 7:
				stores[i].HavocVars()
				refs[i].HavocVars()
			case 8:
				stores[i].SetBot()
				refs[i].SetBot()
			case 9:
				if stores[i].JoinWith(nil) || refs[i].JoinWith(nil) {
					t.Fatalf("step %d: JoinWith(nil) reported a change", step)
				}
			}
			for k := range stores {
				if err := sameReads(stores[k], refs[k]); err != nil {
					t.Fatalf("step %d: after op %d on store %d (operand %v): store %d: %v", step, op, i, arg, k, err)
				}
			}
		}
	})
}

// sameReads compares every read of s against the reference r.
func sameReads(s *Store, r *refStore) error {
	if s.Bot != r.Bot {
		return fmt.Errorf("Bot = %v, reference %v", s.Bot, r.Bot)
	}
	for _, v := range fuzzVars {
		if got, want := s.VarVal(v), r.VarVal(v); got != want {
			return fmt.Errorf("VarVal(%s) = %v, reference %v", v.Name, got, want)
		}
	}
	for _, sig := range fuzzSigs {
		if got, want := s.SigVal(sig), r.SigVal(sig); got != want {
			return fmt.Errorf("SigVal(%s) = %v, reference %v", sig.Name, got, want)
		}
	}
	for _, vi := range fuzzFrames {
		got, gotOK := s.FrameVal(vi)
		want, wantOK := r.FrameVal(vi)
		if got != want || gotOK != wantOK {
			return fmt.Errorf("FrameVal(%s) = %v, %v; reference %v, %v", vi.Name, got, gotOK, want, wantOK)
		}
	}
	return nil
}

var cloneSink *Store

// TestStoreCloneAllocs: a clone is the store header plus one value
// vector, whatever the number of slots.
func TestStoreCloneAllocs(t *testing.T) {
	for _, n := range []int{1, 16, 256} {
		s := NewStore()
		for i := 0; i < n; i++ {
			s.SetVar(&kernel.Var{Name: fmt.Sprint("v", i), Type: ctypes.Int}, Const(int64(i)))
			s.SetFrame(&sem.VarInfo{Name: fmt.Sprint("f", i), Type: ctypes.Int}, Const(int64(i)))
		}
		if allocs := testing.AllocsPerRun(100, func() { cloneSink = s.Clone() }); allocs > 2 {
			t.Errorf("%d slots: Clone makes %v allocations, want at most 2", 2*n, allocs)
		}
	}
}
