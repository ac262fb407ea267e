package exec

import (
	"math/rand"
	"testing"

	"repro/internal/cval"
	"repro/internal/paperex"
)

// TestPortsResolution checks name↔slot resolution and instant binding
// against the map-path error contract.
func TestPortsResolution(t *testing.T) {
	design := buildDesign(t, "stack.ecl", paperex.Stack, "toplevel")
	m, err := Open("efsm-table", design)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := m.(SlotStepper)
	if !ok {
		t.Fatal("efsm-table machine is not a SlotStepper")
	}
	p := s.Ports()
	if p.NumInputs() != len(m.Inputs()) || p.NumOutputs() != len(m.Outputs()) {
		t.Fatalf("port counts: %d/%d vs %d/%d",
			p.NumInputs(), p.NumOutputs(), len(m.Inputs()), len(m.Outputs()))
	}
	if p.PresentLen() != p.NumInputs()+p.NumOutputs() {
		t.Fatalf("PresentLen %d", p.PresentLen())
	}
	for i, sig := range m.Inputs() {
		slot, ok := p.InputSlot(sig.Name)
		if !ok || slot != i {
			t.Errorf("input %s: slot %d ok=%v, want %d", sig.Name, slot, ok, i)
		}
	}
	for j, sig := range m.Outputs() {
		slot, ok := p.OutputSlot(sig.Name)
		if !ok || slot != j {
			t.Errorf("output %s: slot %d ok=%v, want %d", sig.Name, slot, ok, j)
		}
	}
	if _, ok := p.InputSlot("NOPE"); ok {
		t.Error("unknown input resolved")
	}

	present, vals := p.NewPresent(), p.NewInputs()
	if err := p.BindInstant(map[string]cval.Value{"NOPE": {}}, present, vals); err == nil {
		t.Error("BindInstant accepted an unknown input")
	} else if _, ok := err.(*UnknownInputError); !ok {
		t.Errorf("want UnknownInputError, got %T", err)
	}
	var pure string
	for _, sig := range m.Inputs() {
		if sig.Pure {
			pure = sig.Name
		}
	}
	if pure != "" {
		err := p.BindInstant(map[string]cval.Value{pure: cval.FromBool(true)}, present, vals)
		if _, ok := err.(*PureValueError); !ok {
			t.Errorf("value on pure input %s: want PureValueError, got %v", pure, err)
		}
	}
}

// TestSlotStepABRO drives ABRO's defining scenario entirely through
// the slot-indexed path.
func TestSlotStepABRO(t *testing.T) {
	design := buildDesign(t, "abro.ecl", paperex.ABRO, "abro")
	m, err := Open("efsm-table", design)
	if err != nil {
		t.Fatal(err)
	}
	s := m.(SlotStepper)
	p := s.Ports()
	present, in, out := p.NewPresent(), p.NewInputs(), p.NewOutputs()
	slotO, ok := p.OutputSlot("O")
	if !ok {
		t.Fatal("no output slot O")
	}
	nIn := p.NumInputs()
	step := func(names ...string) bool {
		for i := 0; i < nIn; i++ {
			present[i] = false
		}
		for _, n := range names {
			i, ok := p.InputSlot(n)
			if !ok {
				t.Fatalf("no input slot %s", n)
			}
			present[i] = true
		}
		if _, err := s.StepSlots(present, in, out); err != nil {
			t.Fatal(err)
		}
		return present[nIn+slotO]
	}
	step()
	if step("A") {
		t.Fatal("O before B")
	}
	if !step("B") {
		t.Fatal("no O after A then B")
	}
	if step("A", "B") {
		t.Fatal("O again before reset")
	}
	step("R")
	if !step("A", "B") {
		t.Fatal("no O after reset")
	}
}

// TestSlotStepZeroAllocs is the tentpole's hard performance contract:
// steady-state slot stepping performs no allocations, across a pure
// controller and the valued protocol stack (data guards, C function
// calls, valued emits), on the table VM and under the simulated RTOS.
func TestSlotStepZeroAllocs(t *testing.T) {
	cases := []struct {
		name, backend, path, src, module string
	}{
		{"abro", "efsm-table", "abro.ecl", paperex.ABRO, "abro"},
		{"toplevel", "efsm-table", "stack.ecl", paperex.Stack, "toplevel"},
		{"sim", "sim", "stack.ecl", paperex.Stack, "toplevel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			design := buildDesign(t, tc.path, tc.src, tc.module)
			m, err := Open(tc.backend, design)
			if err != nil {
				t.Fatal(err)
			}
			s := m.(SlotStepper)
			p := s.Ports()
			present, in, out := p.NewPresent(), p.NewInputs(), p.NewOutputs()
			// Pre-bind a representative instant: every valued input
			// present with a value, every pure input present.
			for i, sig := range p.Inputs() {
				present[i] = true
				if !sig.Pure && sig.Type != nil {
					in[i] = cval.FromInt(sig.Type, 0x41)
				}
			}
			// Warm up (first steps may lazily touch nothing, but keep
			// the measurement purely steady-state).
			for i := 0; i < 4; i++ {
				if _, err := s.StepSlots(present, in, out); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := s.StepSlots(present, in, out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("StepSlots allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestTableDifferential is the direct table-vs-interpreter diff over
// the fuzz corpus modules (the conformance suite covers the paper
// examples too; this keeps the check close to the implementation and
// under independent seeds).
func TestTableDifferential(t *testing.T) {
	designs, err := fuzzCorpusDesigns()
	if err != nil {
		t.Fatal(err)
	}
	for _, design := range designs {
		ref, err := Open("interp", design)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(100); seed < 104; seed++ {
			rng := rand.New(rand.NewSource(seed))
			instants := randomInstantsFor(rng, ref, 80, 0.45)
			want, err := Record(ref, instants)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Open("efsm-table", design)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Record(got, instants)
			if err != nil {
				t.Fatalf("%s seed %d: %v", ref.Module(), seed, err)
			}
			if err := Diff(want, tr); err != nil {
				t.Errorf("%s seed %d (interp vs efsm-table): %v", ref.Module(), seed, err)
			}
			if err := ref.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSessionUsesSlotPath checks that a session over an efsm-table
// machine batches through the slot path and produces the same events
// as the map path.
func TestSessionUsesSlotPath(t *testing.T) {
	design := buildDesign(t, "stack.ecl", paperex.Stack, "toplevel")
	s := NewSession()
	id, err := s.Open("", "efsm-table", design)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if e.slots == nil {
		t.Fatal("session entry did not detect the slot path for efsm-table")
	}
	rng := rand.New(rand.NewSource(7))
	ref, err := Open("interp", design)
	if err != nil {
		t.Fatal(err)
	}
	batch := randomInstantsFor(rng, ref, 40, 0.5)
	want, err := Record(ref, batch)
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.StepBatch(id, batch)
	if err != nil {
		t.Fatal(err)
	}
	got := NewTrace("toplevel", "efsm-table")
	for i, res := range results {
		got.Append(batch[i], res)
	}
	if err := Diff(want, got); err != nil {
		t.Fatalf("session slot path diverged from interp: %v", err)
	}

	// The interp entry must fall back to the map path.
	id2, err := s.Open("", "interp", design)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.lookup(id2)
	if err != nil {
		t.Fatal(err)
	}
	if e2.slots != nil {
		t.Error("interp entry unexpectedly claims the slot path")
	}
}
