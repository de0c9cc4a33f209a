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
	return proveHashed(a, nil, b, nil, nil, 0)
}

// ProveKeysEquivalentBudget decides whether a locked circuit computes
// the same function under keyA and under keyB. Both keys enter one
// hashed encoding as constants, so the copies share every gate their
// keys do not reach and only the key-dependent cones face the solver;
// the verdict is that of ProveEquivalentHashed on the two activated
// circuits. conflictBudget bounds the SAT search (0 = unlimited): when
// it runs out the pair is reported equivalent=true with a nil witness
// and no error — callers that need certainty must pass 0.
func ProveKeysEquivalentBudget(locked *netlist.Circuit, keyA, keyB []bool, conflictBudget uint64) (bool, []bool, error) {
	if len(keyA) != locked.NumKeys() || len(keyB) != locked.NumKeys() {
		return false, nil, fmt.Errorf("miter: key lengths %d/%d, circuit %q has %d key inputs",
			len(keyA), len(keyB), locked.Name, locked.NumKeys())
	}
	// Outputs no key reaches compute one function under every key: only
	// the others, with the logic feeding them, are encoded.
	order, err := locked.TopoOrder()
	if err != nil {
		return false, nil, err
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
		return true, nil, nil
	}
	return proveHashed(locked, keyA, locked, keyB, outputs, conflictBudget)
}

// proveHashed encodes circuit a under keyA and circuit b under keyB over
// shared input literals and searches for an input on which any listed
// output pair (every pair when outputs is nil) differs.
func proveHashed(a *netlist.Circuit, keyA []bool, b *netlist.Circuit, keyB []bool, outputs []int, conflictBudget uint64) (bool, []bool, error) {
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return false, nil, fmt.Errorf("miter: shape mismatch: %s vs %s", a, b)
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
		return false, nil, err
	}
	outsB, err := h.Encode(b, inputLits, constants(h, keyB), outputs)
	if err != nil {
		return false, nil, err
	}
	// Output pairs that hashed to one literal are provably equal and drop
	// out of diff; when all do, diff is the constant false.
	diff := h.Diff(outsA, outsB)
	if diff == h.Const(false) {
		return true, nil, nil
	}
	switch solver.Solve(diff) {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		witness := make([]bool, len(inputLits))
		for i, l := range inputLits {
			witness[i] = solver.ModelValue(l)
		}
		return false, witness, nil
	}
	if conflictBudget > 0 {
		return true, nil, nil // budget exhausted: treated as "no difference found"
	}
	return false, nil, fmt.Errorf("miter: solver returned UNKNOWN")
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
	eq, _, err := proveHashed(locked, key, reference, nil, nil, 0)
	return eq, err
}
