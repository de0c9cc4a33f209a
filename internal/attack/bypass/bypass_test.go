package bypass

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
)

func host(t *testing.T, inputs int) *netlist.Circuit {
	t.Helper()
	c, err := synth.Generate(synth.Config{Name: "h", Inputs: inputs, Outputs: 3, Gates: 45, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBypassCorrectsAntiSAT(t *testing.T) {
	// Anti-SAT: one DIP, one fix — the case the bypass attack was
	// designed for.
	h := host(t, 10)
	locked, _, err := lock.ApplyAntiSAT(h, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(locked.Circuit, oracle.MustNewSim(h), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixes != 1 {
		t.Errorf("Anti-SAT needed %d fixes, want 1", res.Fixes)
	}
	eq, _, err := miter.ProveEquivalentHashed(res.Circuit, h)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("bypassed Anti-SAT circuit not equivalent to the original")
	}
}

func TestBypassCorrectsCASButBloats(t *testing.T) {
	// CAS-Lock with ORs: the bypass still works functionally, but the
	// fix count — the paper's #DIPs — grows with the OR positions.
	h := host(t, 10)
	chain := lock.MustParseChain("2A-O-2A")
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: chain, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(locked.Circuit, oracle.MustNewSim(h), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixes < int(core.MaxDIPs(chain))/2 {
		t.Errorf("suspiciously few fixes: %d for formula %d", res.Fixes, core.MaxDIPs(chain))
	}
	eq, _, err := miter.ProveEquivalentHashed(res.Circuit, h)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("bypassed CAS circuit not equivalent to the original")
	}
	if res.OverheadGates <= 0 {
		t.Error("no overhead recorded")
	}
}

func TestBypassOverheadGrowsWithDIPs(t *testing.T) {
	h := host(t, 12)
	overheads := map[string]int{}
	for _, cfg := range []string{"6A", "3A-O-2A", "A-O-2A-O-A"} {
		locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain(cfg), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(locked.Circuit, oracle.MustNewSim(h), Options{})
		if err != nil {
			t.Fatal(err)
		}
		overheads[cfg] = res.OverheadGates
	}
	if !(overheads["6A"] < overheads["3A-O-2A"] && overheads["3A-O-2A"] < overheads["A-O-2A-O-A"]) {
		t.Errorf("overhead not increasing with DIP count: %v", overheads)
	}
}

func TestBypassBudget(t *testing.T) {
	h := host(t, 12)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain("A-O-2A-O-2A"), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(locked.Circuit, oracle.MustNewSim(h), Options{MaxFixes: 4}); err == nil {
		t.Error("fix budget not enforced")
	}
}

func TestGenericBypassCorrectsSARLock(t *testing.T) {
	// The published bypass attack's home turf: SARLock falls to a single
	// pair of comparators (one per chosen wrong key corruption).
	h := host(t, 12)
	locked, _, err := lock.ApplySARLock(h, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGeneric(locked.Circuit, oracle.MustNewSim(h), 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	eq, _, err := miter.ProveEquivalentHashed(res.Circuit, h)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("generic bypass on SARLock not equivalent to the original")
	}
	if res.Fixes == 0 || res.Fixes > 32 {
		t.Errorf("implausible fix count %d", res.Fixes)
	}
}

func TestGenericBypassBudget(t *testing.T) {
	h := host(t, 12)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain("A-O-2A-O-2A"), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunGeneric(locked.Circuit, oracle.MustNewSim(h), 8, 5); err == nil {
		t.Error("fix budget not enforced on a high-corruption instance")
	}
}

// TestBypassHonoursContext runs the CAS-aware bypass under a cancelled
// context at two block widths (both through the simulation extractor):
// the enumeration must stop with the context's error rather than finish.
func TestBypassHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		chain  string
		inputs int
	}{{"2A-O-2A", 10}, {"6A-O-6A", 18}} {
		h := host(t, tc.inputs)
		locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain(tc.chain), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(locked.Circuit, oracle.MustNewSim(h), Options{Context: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Run under a cancelled context returned (%v, %v), want context.Canceled", tc.chain, res, err)
		}
	}
}
