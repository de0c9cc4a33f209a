// Package miter builds the comparison circuits the attacks run SAT on:
// the key-differential miter of the SAT attack, the fixed-key two-copy
// miter of the bypass attack and of the paper's Lemma 1, and plain
// equivalence miters for verification.
package miter

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// KeyDiff is a key-differential miter: one copy of the inputs X feeding
// two copies of a locked circuit with independent key ports; the single
// output is 1 iff the copies' outputs differ.
type KeyDiff struct {
	// Circuit has inputs X (same order as the locked circuit), keys
	// KA || KB (NKeys each), and one output: the difference signal.
	Circuit *netlist.Circuit
	// NKeys is the key width of one copy.
	NKeys int
}

// NewKeyDiff builds the key-differential miter of a locked circuit.
func NewKeyDiff(locked *netlist.Circuit) (*KeyDiff, error) {
	if locked.NumKeys() == 0 {
		return nil, fmt.Errorf("miter: circuit %q has no key inputs", locked.Name)
	}
	m := netlist.New(locked.Name + "_miter")
	inputMap := make([]netlist.ID, locked.NumInputs())
	for i, id := range locked.Inputs() {
		inputMap[i] = m.MustAddInput(locked.Gate(id).Name)
	}
	outsA, err := m.Import(locked, netlist.ImportOptions{Prefix: "A_", InputMap: inputMap, ImportKeysAsKeys: true})
	if err != nil {
		return nil, err
	}
	outsB, err := m.Import(locked, netlist.ImportOptions{Prefix: "B_", InputMap: inputMap, ImportKeysAsKeys: true})
	if err != nil {
		return nil, err
	}
	diff, err := differenceSignal(m, outsA, outsB, "md")
	if err != nil {
		return nil, err
	}
	if err := m.MarkOutput(diff); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &KeyDiff{Circuit: m, NKeys: locked.NumKeys()}, nil
}

// KeysA returns the key inputs of copy A.
func (k *KeyDiff) KeysA() []netlist.ID { return k.Circuit.Keys()[:k.NKeys] }

// KeysB returns the key inputs of copy B.
func (k *KeyDiff) KeysB() []netlist.ID { return k.Circuit.Keys()[k.NKeys:] }

// NewEquivalence builds a miter over two key-free circuits with
// identical I/O shape; its single output is 1 iff they disagree.
func NewEquivalence(a, b *netlist.Circuit) (*netlist.Circuit, error) {
	if a.NumKeys() != 0 || b.NumKeys() != 0 {
		return nil, fmt.Errorf("miter: equivalence miter needs key-free circuits")
	}
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return nil, fmt.Errorf("miter: shape mismatch: %s vs %s", a, b)
	}
	m := netlist.New("eq_miter")
	inputMap := make([]netlist.ID, a.NumInputs())
	for i, id := range a.Inputs() {
		inputMap[i] = m.MustAddInput(a.Gate(id).Name)
	}
	outsA, err := m.Import(a, netlist.ImportOptions{Prefix: "A_", InputMap: inputMap})
	if err != nil {
		return nil, err
	}
	outsB, err := m.Import(b, netlist.ImportOptions{Prefix: "B_", InputMap: inputMap})
	if err != nil {
		return nil, err
	}
	diff, err := differenceSignal(m, outsA, outsB, "eq")
	if err != nil {
		return nil, err
	}
	if err := m.MarkOutput(diff); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// differenceSignal XORs output pairs and ORs the result into one signal.
func differenceSignal(m *netlist.Circuit, a, b []netlist.ID, prefix string) (netlist.ID, error) {
	if len(a) != len(b) || len(a) == 0 {
		return netlist.InvalidID, fmt.Errorf("miter: output lists %d/%d", len(a), len(b))
	}
	xors := make([]netlist.ID, len(a))
	for i := range a {
		x, err := m.AddGate(netlist.Xor, fmt.Sprintf("%s_x%d", prefix, i), a[i], b[i])
		if err != nil {
			return netlist.InvalidID, err
		}
		xors[i] = x
	}
	acc := xors[0]
	for i := 1; i < len(xors); i++ {
		var err error
		acc, err = m.AddGate(netlist.Or, fmt.Sprintf("%s_o%d", prefix, i), acc, xors[i])
		if err != nil {
			return netlist.InvalidID, err
		}
	}
	return acc, nil
}

// ProveEquivalent decides, by SAT, whether two key-free circuits are
// functionally identical. It returns (true, nil) on proved equivalence
// and (false, witness) with a distinguishing input pattern otherwise.
func ProveEquivalent(a, b *netlist.Circuit) (bool, []bool, error) {
	m, err := NewEquivalence(a, b)
	if err != nil {
		return false, nil, err
	}
	s := sat.New()
	enc, err := cnf.EncodeInto(m, s)
	if err != nil {
		return false, nil, err
	}
	diffLit := enc.OutputLits(m)[0]
	switch s.Solve(diffLit) {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		witness := make([]bool, m.NumInputs())
		for i, l := range enc.InputLits(m) {
			witness[i] = s.ModelValue(l)
		}
		return false, witness, nil
	}
	return false, nil, fmt.Errorf("miter: solver returned UNKNOWN")
}

// ProveUnlocked decides whether a locked circuit under the given key is
// functionally identical to a reference circuit. This is the
// experimenter's ground-truth check for attack results.
func ProveUnlocked(locked *netlist.Circuit, key []bool, reference *netlist.Circuit) (bool, error) {
	act, err := oracle.Activate(locked, key)
	if err != nil {
		return false, err
	}
	eq, _, err := ProveEquivalent(act, reference)
	return eq, err
}
