package core

import (
	"strings"
	"testing"

	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// runPortfolioPath mounts one full attack with the racing-portfolio
// backend on a fresh lock instance.
func runPortfolioPath(t *testing.T, inputs int, chain string, lockSeed, attackSeed int64, size int) (*Result, *lock.CASInstance) {
	t.Helper()
	h := host(t, inputs)
	locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain(chain), Seed: lockSeed})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.NewSim(h)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Locked: locked.Circuit, Oracle: orc, Seed: attackSeed, Portfolio: size})
	if err != nil {
		t.Fatalf("attack (portfolio=%d) failed: %v", size, err)
	}
	return res, inst
}

// TestPortfolioSingleEngineKeyDifferential proves the portfolio backend
// recovers byte-identical results to the single persistent engine
// across chain schemes, terminator cases, and key widths — including a
// 32-bit-key SAT-regime instance and a sim-regime instance where the
// portfolio only engages for distinguishing. This is the end-to-end
// soundness check for clause sharing: an unsound import would corrupt
// a member's DIP sets or verdicts, and any divergence lands here.
func TestPortfolioSingleEngineKeyDifferential(t *testing.T) {
	cases := []struct {
		name   string
		chain  string
		inputs int
		seeds  []int64
	}{
		{"and-term-n5", "2A-O-A", 8, []int64{1, 2}},
		{"or-term-n5", "A-O-A-O", 8, []int64{1, 2}},
		{"and-heavy-n8", "3A-O-3A", 10, []int64{3}},
		{"or-heavy-n8", "2O-A-2O-2A", 10, []int64{3}},
		{"sim-n13", "6A-O-5A", 14, []int64{5}},
		{"key32-n16", "7A-O-7A", 18, []int64{7}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range tc.seeds {
				resetProbeMemo() // portfolio and single runs must each probe their own config
				singleRes, inst, _, _ := runPath(t, tc.inputs, tc.chain, seed, seed^0xbeef)
				portRes, _ := runPortfolioPath(t, tc.inputs, tc.chain, seed, seed^0xbeef, 3)
				if !inst.IsCorrectCASKey(singleRes.Key) {
					t.Fatalf("seed %d: single-engine path recovered a wrong key", seed)
				}
				if len(portRes.Key) != len(singleRes.Key) {
					t.Fatalf("seed %d: key lengths differ: %d vs %d", seed, len(portRes.Key), len(singleRes.Key))
				}
				for i := range portRes.Key {
					if portRes.Key[i] != singleRes.Key[i] {
						t.Fatalf("seed %d: keys diverge at bit %d", seed, i)
					}
				}
				if portRes.Chain.String() != singleRes.Chain.String() {
					t.Fatalf("seed %d: chains diverge: %s vs %s", seed, portRes.Chain, singleRes.Chain)
				}
				if portRes.Case != singleRes.Case {
					t.Fatalf("seed %d: cases diverge: %d vs %d", seed, portRes.Case, singleRes.Case)
				}
				if portRes.AlignedDIPs != singleRes.AlignedDIPs || portRes.TotalDIPs != singleRes.TotalDIPs {
					t.Fatalf("seed %d: DIP accounting diverges: %d/%d vs %d/%d", seed,
						portRes.AlignedDIPs, portRes.TotalDIPs, singleRes.AlignedDIPs, singleRes.TotalDIPs)
				}
			}
		})
	}
}

// TestPortfolioEncodesOnceAcrossAttack pins the shared-encoding
// contract on the portfolio path: one Tseitin encode feeds all members
// for the whole attack, and the portfolio counter families (wins, disagreement alarm) are live.
func TestPortfolioEncodesOnceAcrossAttack(t *testing.T) {
	h := host(t, 10)
	locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain("A-O-2A-O"), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.NewSim(h)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	res, err := Run(Options{Locked: locked.Circuit, Oracle: orc, Telemetry: tel,
		SATWidthLimit: 12, Portfolio: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCorrectCASKey(res.Key) {
		t.Fatal("recovered key incorrect")
	}
	snap := tel.Snapshot()
	if got := snap.Counters["engine_encodings_total"]; got != 1 {
		t.Fatalf("engine_encodings_total = %d, want exactly 1 shared encode", got)
	}
	if snap.Counters["portfolio_disagreements_total"] != 0 {
		t.Fatal("soundness alarm: portfolio members disagreed on a verdict")
	}
	var wins uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "portfolio_wins_total") {
			wins += v
		}
	}
	if wins == 0 {
		t.Fatal("no portfolio race wins recorded: the portfolio backend did not run")
	}
}
