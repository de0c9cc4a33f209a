package miter

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// ProveEquivalentHashed decides functional equivalence of two key-free
// circuits using structural hashing before SAT. Semantically identical to
// ProveEquivalent, but fast when the circuits share most of their logic.
func ProveEquivalentHashed(a, b *netlist.Circuit) (bool, []bool, error) {
	if a.NumKeys() != 0 || b.NumKeys() != 0 {
		return false, nil, fmt.Errorf("miter: equivalence check needs key-free circuits")
	}
	st, w, err := proveHashed(a, nil, b, nil, nil, 0)
	return st == sat.Unsat, w, err
}

// DistinguishKeys searches for an input on which a locked circuit
// computes different outputs under keyA and under keyB. Both keys enter
// one hashed encoding as constants, so the copies share every gate their
// keys do not reach and only the key-dependent cones face the solver.
// The verdict is typed: Unsat proves the keys equivalent, Sat comes with
// a witness input that distinguishes them, and Unknown means
// conflictBudget (0 = unlimited) ran out first — possible only with a
// positive budget.
func DistinguishKeys(locked *netlist.Circuit, keyA, keyB []bool, conflictBudget uint64) (sat.Status, []bool, error) {
	if len(keyA) != locked.NumKeys() || len(keyB) != locked.NumKeys() {
		return sat.Unknown, nil, fmt.Errorf("miter: key lengths %d/%d, circuit %q has %d key inputs",
			len(keyA), len(keyB), locked.Name, locked.NumKeys())
	}
	// Outputs no key reaches compute one function under every key: only
	// the others, with the logic feeding them, are encoded.
	order, err := locked.TopoOrder()
	if err != nil {
		return sat.Unknown, nil, err
	}
	keyed := make([]bool, locked.NumGates())
	for _, k := range locked.Keys() {
		keyed[k] = true
	}
	for _, id := range order {
		for _, f := range locked.Gate(id).Fanin {
			if keyed[f] {
				keyed[id] = true
				break
			}
		}
	}
	outputs := []int{}
	for i, o := range locked.Outputs() {
		if keyed[o] {
			outputs = append(outputs, i)
		}
	}
	if len(outputs) == 0 {
		return sat.Unsat, nil, nil
	}
	return proveHashed(locked, keyA, locked, keyB, outputs, conflictBudget)
}

// proveHashed encodes circuit a under keyA and circuit b under keyB over
// shared input literals and searches for an input on which any listed
// output pair (every pair when outputs is nil) differs: Unsat when none
// exists, Sat with the input, Unknown when conflictBudget ran out.
func proveHashed(a *netlist.Circuit, keyA []bool, b *netlist.Circuit, keyB []bool, outputs []int, conflictBudget uint64) (sat.Status, []bool, error) {
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return sat.Unknown, nil, fmt.Errorf("miter: shape mismatch: %s vs %s", a, b)
	}
	solver := sat.New()
	solver.ConflictBudget = conflictBudget
	h := cnf.NewHasher(solver, 0)
	inputLits := make([]cnf.Lit, a.NumInputs())
	for i := range inputLits {
		inputLits[i] = solver.NewVar()
	}
	outsA, err := h.Encode(a, inputLits, constants(h, keyA), outputs)
	if err != nil {
		return sat.Unknown, nil, err
	}
	outsB, err := h.Encode(b, inputLits, constants(h, keyB), outputs)
	if err != nil {
		return sat.Unknown, nil, err
	}
	// Output pairs that hashed to one literal are provably equal and drop
	// out of diff; when all do, diff is the constant false.
	diff := h.Diff(outsA, outsB)
	if diff == h.Const(false) {
		return sat.Unsat, nil, nil
	}
	st := solver.Solve(diff)
	switch {
	case st == sat.Sat:
		witness := make([]bool, len(inputLits))
		for i, l := range inputLits {
			witness[i] = solver.ModelValue(l)
		}
		return st, witness, nil
	case st == sat.Unknown && conflictBudget == 0:
		return st, nil, fmt.Errorf("miter: solver returned UNKNOWN")
	}
	return st, nil, nil
}

// constants maps fixed key bits to the encoder's constant literals.
func constants(h *cnf.Hasher, key []bool) []cnf.Lit {
	if key == nil {
		return nil
	}
	ls := make([]cnf.Lit, len(key))
	for i, b := range key {
		ls[i] = h.Const(b)
	}
	return ls
}

// ProveUnlockedHashed is ProveUnlocked using the hashed encoder, with
// the key folded into the locked circuit's encoding.
func ProveUnlockedHashed(locked *netlist.Circuit, key []bool, reference *netlist.Circuit) (bool, error) {
	if reference.NumKeys() != 0 {
		return false, fmt.Errorf("miter: reference circuit %q has key inputs", reference.Name)
	}
	st, _, err := proveHashed(locked, key, reference, nil, nil, 0)
	return st == sat.Unsat, err
}
