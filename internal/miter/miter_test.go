package miter

import (
	"testing"

	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/synth"
)

func host(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := synth.Generate(synth.Config{Name: "h", Inputs: 8, Outputs: 2, Gates: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestKeyDiffShape(t *testing.T) {
	locked, _, err := lock.ApplyRLL(host(t), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := NewKeyDiff(locked.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	c := kd.Circuit
	if c.NumInputs() != 8 || c.NumKeys() != 8 || c.NumOutputs() != 1 {
		t.Fatalf("miter shape: %s", c)
	}
	if len(kd.KeysA()) != 4 || len(kd.KeysB()) != 4 {
		t.Fatal("key split wrong")
	}
	// Same key on both sides → diff always 0.
	sim := netlist.MustNewSimulator(c)
	key := append(append([]bool(nil), locked.Key...), locked.Key...)
	for x := uint64(0); x < 256; x++ {
		out, err := sim.Run(netlist.PatternFromUint(x, 8), key)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] {
			t.Fatalf("identical keys disagree at x=%d", x)
		}
	}
}

func TestKeyDiffDetectsDifference(t *testing.T) {
	locked, _, err := lock.ApplyRLL(host(t), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := NewKeyDiff(locked.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	sim := netlist.MustNewSimulator(kd.Circuit)
	wrong := append([]bool(nil), locked.Key...)
	wrong[0] = !wrong[0]
	key := append(append([]bool(nil), locked.Key...), wrong...)
	found := false
	for x := uint64(0); x < 256; x++ {
		out, _ := sim.Run(netlist.PatternFromUint(x, 8), key)
		if out[0] {
			found = true
			break
		}
	}
	if !found {
		t.Error("no DIP found between correct and corrupting key")
	}
}

func TestNewKeyDiffRejectsUnlocked(t *testing.T) {
	if _, err := NewKeyDiff(host(t)); err == nil {
		t.Error("key-free circuit accepted")
	}
}

func TestProveEquivalent(t *testing.T) {
	h := host(t)
	clone := h.Clone()
	eq, _, err := ProveEquivalent(h, clone)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("circuit not equivalent to its clone")
	}
	// Mutate the clone: invert an output.
	inv := clone.MustAddGate(netlist.Not, "inv", clone.Outputs()[0])
	if err := clone.ReplaceOutput(0, inv); err != nil {
		t.Fatal(err)
	}
	eq, witness, err := ProveEquivalent(h, clone)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("inverted output reported equivalent")
	}
	// The witness must actually distinguish them.
	oa, _ := h.Eval(witness, nil)
	ob, _ := clone.Eval(witness, nil)
	same := true
	for i := range oa {
		if oa[i] != ob[i] {
			same = false
		}
	}
	if same {
		t.Error("witness does not distinguish the circuits")
	}
}

func TestProveUnlocked(t *testing.T) {
	h := host(t)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain("A-O-A"), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ProveUnlocked(locked.Circuit, locked.Key, h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("correct key not proven")
	}
	wrong := append([]bool(nil), locked.Key...)
	wrong[0] = !wrong[0]
	ok, err = ProveUnlocked(locked.Circuit, wrong, h)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("wrong key proven equivalent")
	}
}

func TestEquivalenceShapeChecks(t *testing.T) {
	h := host(t)
	small, _ := synth.Generate(synth.Config{Name: "s", Inputs: 4, Outputs: 1, Gates: 6, Seed: 1})
	if _, err := NewEquivalence(h, small); err == nil {
		t.Error("shape mismatch accepted")
	}
	locked, _, _ := lock.ApplyRLL(h, 2, 1)
	if _, err := NewEquivalence(h, locked.Circuit); err == nil {
		t.Error("keyed circuit accepted")
	}
}
