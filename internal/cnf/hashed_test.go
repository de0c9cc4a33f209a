package cnf_test

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// TestHasherMatchesSimulation checks the hashed encoder against
// simulation on the mixed-gate circuit and random circuits: with
// literal inputs, assuming any input pattern forces exactly the
// simulated outputs; with constant inputs, every output folds to the
// simulated constant; and re-encoding over the same literals reuses
// every gate, adding no variable or clause.
func TestHasherMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	circuits := []*netlist.Circuit{buildMixedCircuit()}
	for i := 0; i < 20; i++ {
		circuits = append(circuits, randomCircuit(rng, 6, 35))
	}
	for ci, c := range circuits {
		s := sat.New()
		h := cnf.NewHasher(s, 0)
		n := c.NumInputs()
		inputs := make([]cnf.Lit, n)
		for i := range inputs {
			inputs[i] = s.NewVar()
		}
		outs, err := h.Encode(c, inputs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		vars, clauses := s.NumVars(), s.NumClauses()
		again, err := h.Encode(c, inputs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for o := range outs {
			if again[o] != outs[o] {
				t.Fatalf("circuit %d: re-encoded output %d is literal %d, first %d", ci, o, again[o], outs[o])
			}
		}
		if s.NumVars() != vars || s.NumClauses() != clauses {
			t.Fatalf("circuit %d: re-encoding grew the formula", ci)
		}
		for x := uint64(0); x < 1<<uint(n); x++ {
			in := netlist.PatternFromUint(x, n)
			want, err := c.Eval(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			consts := make([]cnf.Lit, n)
			assume := make([]cnf.Lit, n)
			for i, b := range in {
				consts[i] = h.Const(b)
				assume[i] = inputs[i]
				if !b {
					assume[i] = assume[i].Neg()
				}
			}
			folded, err := h.Encode(c, consts, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for o, l := range outs {
				if folded[o] != h.Const(want[o]) {
					t.Fatalf("circuit %d x=%d: output %d folds to literal %d, want the constant %v", ci, x, o, folded[o], want[o])
				}
				wrong := l
				if want[o] {
					wrong = l.Neg()
				}
				if st := s.Solve(append(assume, wrong)...); st != sat.Unsat {
					t.Fatalf("circuit %d x=%d: wrong value of output %d is %v", ci, x, o, st)
				}
			}
		}
	}
}

// TestHasherRejectsWidths: input and key literal lists must match the
// circuit.
func TestHasherRejectsWidths(t *testing.T) {
	c := buildMixedCircuit()
	h := cnf.NewHasher(&cnf.Formula{}, 0)
	if _, err := h.Encode(c, []cnf.Lit{h.Const(true)}, nil, nil); err == nil {
		t.Error("short input list accepted")
	}
	ins := []cnf.Lit{h.Const(true), h.Const(false), h.Const(true)}
	if _, err := h.Encode(c, ins, []cnf.Lit{h.Const(true)}, nil); err == nil {
		t.Error("key literals accepted for a key-free circuit")
	}
}

// TestHasherPlanFollowsCircuit interleaves encodings of two circuits and
// of different output lists on one Hasher, then grows one circuit by a
// gate, repoints one of its outputs and adds an input. Every encoding, with constant
// inputs, must fold each requested output to its simulated value: the
// cached work list is reused only while circuit, outputs and gate count
// are unchanged.
func TestHasherPlanFollowsCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	c := randomCircuit(rng, 5, 30)
	other := randomCircuit(rng, 5, 30)
	h := cnf.NewHasher(&cnf.Formula{}, 0)
	check := func(step string, c *netlist.Circuit, outputs []int) {
		t.Helper()
		n := c.NumInputs()
		for x := uint64(0); x < 1<<uint(n); x++ {
			in := netlist.PatternFromUint(x, n)
			want, err := c.Eval(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			consts := make([]cnf.Lit, n)
			for i, b := range in {
				consts[i] = h.Const(b)
			}
			got, err := h.Encode(c, consts, nil, outputs)
			if err != nil {
				t.Fatal(err)
			}
			idx := outputs
			if idx == nil {
				for o := range want {
					idx = append(idx, o)
				}
			}
			if len(got) != len(idx) {
				t.Fatalf("%s: %d output literals, want %d", step, len(got), len(idx))
			}
			for i, o := range idx {
				if got[i] != h.Const(want[o]) {
					t.Fatalf("%s x=%d: output %d folds to literal %d, want the constant %v", step, x, o, got[i], want[o])
				}
			}
		}
	}
	last := c.NumOutputs() - 1
	check("all outputs", c, nil)
	check("one output", c, []int{last})
	check("other circuit", other, nil)
	check("back to the first", c, []int{0, last})
	g := c.MustAddGate(netlist.Xor, "grown", c.Outputs()[0], c.Inputs()[1])
	c.MustMarkOutput(g)
	check("after adding a gate", c, nil)
	if err := c.ReplaceOutput(0, c.Inputs()[2]); err != nil {
		t.Fatal(err)
	}
	check("after repointing an output", c, nil)
	check("after repointing, subset", c, []int{0})
	c.MustAddInput("late") // outputs unchanged, one more input to map
	check("after adding an input", c, []int{0})
}
