package lock

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
)

// testHost returns a small deterministic host circuit.
func testHost(t *testing.T, inputs int) *netlist.Circuit {
	t.Helper()
	c, err := synth.Generate(synth.Config{Name: "host", Inputs: inputs, Outputs: 3, Gates: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// equivalentExhaustive checks functional equality of two key-free
// circuits over the full input space (inputs must be ≤ 16 wide).
func equivalentExhaustive(t *testing.T, a, b *netlist.Circuit) bool {
	t.Helper()
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		t.Fatalf("shape mismatch: %s vs %s", a, b)
	}
	n := a.NumInputs()
	if n > 16 {
		t.Fatalf("too many inputs for exhaustive check: %d", n)
	}
	sa := netlist.MustNewSimulator(a)
	sb := netlist.MustNewSimulator(b)
	for x := uint64(0); x < 1<<uint(n); x++ {
		in := netlist.PatternFromUint(x, n)
		oa, _ := sa.Run(in, nil)
		ob, _ := sb.Run(in, nil)
		for i := range oa {
			if oa[i] != ob[i] {
				return false
			}
		}
	}
	return true
}

func countCorruptedPatterns(t *testing.T, locked *netlist.Circuit, key []bool, original *netlist.Circuit) int {
	t.Helper()
	act, err := oracle.Activate(locked, key)
	if err != nil {
		t.Fatal(err)
	}
	n := original.NumInputs()
	sa := netlist.MustNewSimulator(act)
	so := netlist.MustNewSimulator(original)
	count := 0
	for x := uint64(0); x < 1<<uint(n); x++ {
		in := netlist.PatternFromUint(x, n)
		oa, _ := sa.Run(in, nil)
		oo, _ := so.Run(in, nil)
		for i := range oa {
			if oa[i] != oo[i] {
				count++
				break
			}
		}
	}
	return count
}

func TestCASCorrectKeyRestoresFunction(t *testing.T) {
	host := testHost(t, 10)
	locked, inst, err := ApplyCAS(host, CASOptions{Chain: MustParseChain("A-O-2A-O"), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if locked.Circuit.NumKeys() != 12 {
		t.Fatalf("keys = %d, want 12", locked.Circuit.NumKeys())
	}
	if !inst.IsCorrectCASKey(locked.Key) {
		t.Fatal("canonical key not recognized as correct")
	}
	act, err := oracle.Activate(locked.Circuit, locked.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalentExhaustive(t, act, host) {
		t.Error("correct key does not restore the host function")
	}
}

func TestCASAllCorrectKeysWork(t *testing.T) {
	// The scheme accepts 2^n correct keys: every effective mask m with
	// K1, K2 both realizing m. Verify exhaustively for n = 4.
	host := testHost(t, 8)
	chain := MustParseChain("A-O-A")
	locked, inst, err := ApplyCAS(host, CASOptions{Chain: chain, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	n := inst.N
	correct, wrong := 0, 0
	for k := uint64(0); k < 1<<uint(2*n); k++ {
		key := netlist.PatternFromUint(k, 2*n)
		isCorrect := inst.IsCorrectCASKey(key)
		act, err := oracle.Activate(locked.Circuit, key)
		if err != nil {
			t.Fatal(err)
		}
		equiv := equivalentExhaustive(t, act, host)
		if equiv != isCorrect {
			t.Fatalf("key %v: equivalence %v but IsCorrectCASKey %v", key, equiv, isCorrect)
		}
		if isCorrect {
			correct++
		} else {
			wrong++
		}
	}
	if correct != 1<<uint(n) {
		t.Errorf("correct keys = %d, want %d", correct, 1<<uint(n))
	}
}

func TestCASWrongKeyCorrupts(t *testing.T) {
	host := testHost(t, 10)
	locked, _, err := ApplyCAS(host, CASOptions{Chain: MustParseChain("2A-O-A"), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]bool(nil), locked.Key...)
	wrong[0] = !wrong[0]
	if n := countCorruptedPatterns(t, locked.Circuit, wrong, host); n == 0 {
		t.Error("wrong key corrupts nothing")
	}
}

func TestEvalCASPairMatchesNetlist(t *testing.T) {
	// The standalone bit-parallel pair evaluator must agree with the
	// netlist construction gate for gate.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(5)
		chain := make(ChainConfig, n-1)
		for i := range chain {
			if rng.Intn(2) == 0 {
				chain[i] = ChainOr
			}
		}
		host := testHost(t, n+2)
		locked, inst, err := ApplyCAS(host, CASOptions{Chain: chain, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		k1 := make([]bool, n)
		k2 := make([]bool, n)
		for i := range k1 {
			k1[i] = rng.Intn(2) == 1
			k2[i] = rng.Intn(2) == 1
		}
		key := append(append([]bool(nil), k1...), k2...)
		sim := netlist.MustNewSimulator(locked.Circuit)
		for x := uint64(0); x < 1<<uint(n); x++ {
			in := make([]bool, locked.Circuit.NumInputs())
			blockPattern := netlist.PatternFromUint(x, n)
			for i, s := range inst.InputSel {
				in[s] = blockPattern[i]
			}
			if _, err := sim.Run(in, key); err != nil {
				t.Fatal(err)
			}
			gotG := sim.NodeValue(inst.GOut)
			gotGB := sim.NodeValue(inst.GBarOut)
			xw := make([]uint64, n)
			for i := range xw {
				if blockPattern[i] {
					xw[i] = 1
				}
			}
			g, gb := EvalCASPair(chain, inst.KeyGates1, inst.KeyGates2, k1, k2, xw)
			if (g&1 != 0) != gotG || (gb&1 != 0) != gotGB {
				t.Fatalf("trial %d x=%d: evaluator (%v,%v) netlist (%v,%v)",
					trial, x, g&1 != 0, gb&1 != 0, gotG, gotGB)
			}
		}
	}
}

func TestCASFlipNeverFiresUnderCorrectKey(t *testing.T) {
	host := testHost(t, 9)
	locked, inst, err := ApplyCAS(host, CASOptions{Chain: MustParseChain("A-2O-A-A"), Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sim := netlist.MustNewSimulator(locked.Circuit)
	n := locked.Circuit.NumInputs()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		if _, err := sim.Run(in, locked.Key); err != nil {
			t.Fatal(err)
		}
		if sim.NodeValue(inst.FlipGate) {
			t.Fatalf("flip fired under correct key at trial %d", trial)
		}
	}
}

func TestCASOptionsValidation(t *testing.T) {
	host := testHost(t, 6)
	chain := MustParseChain("A-O-A")
	for label, opts := range map[string]CASOptions{
		"chain too wide":    {Chain: MustParseChain("9A")},
		"short InputSel":    {Chain: chain, InputSel: []int{0, 1}},
		"repeated InputSel": {Chain: chain, InputSel: []int{0, 1, 1, 2}},
		"oob InputSel":      {Chain: chain, InputSel: []int{0, 1, 2, 99}},
		"bad key gates":     {Chain: chain, KeyGates1: []netlist.GateType{netlist.And, netlist.Xor, netlist.Xor, netlist.Xor}},
		"short key gates":   {Chain: chain, KeyGates2: []netlist.GateType{netlist.Xor}},
		"bad target output": {Chain: chain, TargetOutput: 17},
	} {
		if _, _, err := ApplyCAS(host, opts); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
	// Locked host rejected.
	locked, _, err := ApplyCAS(host, CASOptions{Chain: chain})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApplyCAS(locked.Circuit, CASOptions{Chain: chain}); err == nil {
		t.Error("already-locked host accepted")
	}
}

func TestAntiSATIsSinglePointFunction(t *testing.T) {
	host := testHost(t, 8)
	locked, inst, err := ApplyAntiSAT(host, 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Chain.LastOR() != -1 {
		t.Fatal("Anti-SAT chain contains OR gates")
	}
	// Correct key restores the function.
	act, err := oracle.Activate(locked.Circuit, locked.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalentExhaustive(t, act, host) {
		t.Fatal("correct key broken")
	}
	// A wrong key (mask mismatch) corrupts exactly one block pattern:
	// count corrupted full patterns and check they share one block value.
	wrong := append([]bool(nil), locked.Key...)
	wrong[2] = !wrong[2]
	actW, err := oracle.Activate(locked.Circuit, wrong)
	if err != nil {
		t.Fatal(err)
	}
	sa := netlist.MustNewSimulator(actW)
	so := netlist.MustNewSimulator(host)
	blockValues := map[uint64]bool{}
	for x := uint64(0); x < 1<<uint(host.NumInputs()); x++ {
		in := netlist.PatternFromUint(x, host.NumInputs())
		oa, _ := sa.Run(in, nil)
		oo, _ := so.Run(in, nil)
		diff := false
		for i := range oa {
			if oa[i] != oo[i] {
				diff = true
			}
		}
		if diff {
			var bv uint64
			for i, s := range inst.InputSel {
				if in[s] {
					bv |= 1 << uint(i)
				}
			}
			blockValues[bv] = true
		}
	}
	if len(blockValues) != 1 {
		t.Errorf("wrong Anti-SAT key corrupts %d block patterns, want exactly 1", len(blockValues))
	}
}
