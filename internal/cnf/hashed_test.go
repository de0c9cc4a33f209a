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
