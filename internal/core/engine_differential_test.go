package core

import (
	"testing"

	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// runPath mounts one full attack with default options on a fresh lock
// instance and returns the result together with the instance and host.
func runPath(t *testing.T, inputs int, chain string, lockSeed, attackSeed int64) (*Result, *lock.CASInstance, *lock.Locked, *netlist.Circuit) {
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
	res, err := Run(Options{Locked: locked.Circuit, Oracle: orc, Seed: attackSeed})
	if err != nil {
		t.Fatalf("attack failed: %v", err)
	}
	return res, inst, locked, h
}

// exhaustivelyUnlocks reports whether locked under key matches ref on
// every primary-input pattern, by 64-lane simulation of both circuits:
// a ground truth that shares no code with the SAT machinery.
func exhaustivelyUnlocks(t *testing.T, locked *netlist.Circuit, key []bool, ref *netlist.Circuit) bool {
	t.Helper()
	n := locked.NumInputs()
	if n > 20 {
		t.Fatalf("exhaustive check over %d inputs is too large", n)
	}
	simL, err := netlist.NewSimulator(locked)
	if err != nil {
		t.Fatal(err)
	}
	simR, err := netlist.NewSimulator(ref)
	if err != nil {
		t.Fatal(err)
	}
	keyWords := make([]uint64, len(key))
	for i, b := range key {
		if b {
			keyWords[i] = ^uint64(0)
		}
	}
	in := make([]uint64, n)
	want := make([]uint64, ref.NumOutputs())
	total := uint64(1) << uint(n)
	for base := uint64(0); base < total; base += 64 {
		lanes := uint64(0)
		for i := range in {
			in[i] = 0
		}
		for l := uint64(0); l < 64 && base+l < total; l++ {
			lanes |= 1 << l
			for i := range in {
				in[i] |= ((base + l) >> uint(i) & 1) << l
			}
		}
		r, err := simR.Run64(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		copy(want, r)
		got, err := simL.Run64(in, keyWords)
		if err != nil {
			t.Fatal(err)
		}
		for o := range want {
			if (got[o]^want[o])&lanes != 0 {
				return false
			}
		}
	}
	return true
}

// hypothesisAssign is the Lemma-1 pair assignment with the given block
// active: its keys are all-1 in copy A and all-0 in copy B, the other
// block's keys are 0 in both copies.
func hypothesisAssign(locked *netlist.Circuit, layout *BlockLayout, active int) PairAssign {
	a := PairAssign{A: make([]bool, locked.NumKeys()), B: make([]bool, locked.NumKeys())}
	pos := layout.Key1Pos
	if active == 2 {
		pos = layout.Key2Pos
	}
	for _, p := range pos {
		a.A[p] = true
	}
	return a
}

// TestEngineLegacyKeyDifferential holds the engine-backed attack to
// references that share no code with internal/engine, across chain
// schemes, terminator cases and key widths — including instances beyond
// the SAT/simulation extractor boundary:
//
//   - the recovered key is one of the instance's correct keys, the
//     plain-encoder miter (miter.ProveUnlocked) proves it functional,
//     and exhaustive simulation agrees on every input pattern;
//   - the recovered chain is the locked chain or its dual;
//   - under both Lemma-1 hypotheses, the SAT extractor's DIP set equals
//     the simulation extractor's exhaustive walk, pattern for pattern.
func TestEngineLegacyKeyDifferential(t *testing.T) {
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
				res, inst, locked, h := runPath(t, tc.inputs, tc.chain, seed, seed^0xbeef)
				if !inst.IsCorrectCASKey(res.Key) {
					t.Fatalf("seed %d: recovered key is not a correct CAS key", seed)
				}
				ok, err := miter.ProveUnlocked(locked.Circuit, res.Key, h)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("seed %d: plain-encoder miter refutes the recovered key", seed)
				}
				if !exhaustivelyUnlocks(t, locked.Circuit, res.Key, h) {
					t.Fatalf("seed %d: exhaustive simulation refutes the recovered key", seed)
				}
				if !res.Chain.Equal(inst.Chain) && !res.Chain.Equal(dualChain(inst.Chain)) {
					t.Fatalf("seed %d: chain %s recovered as %s", seed, inst.Chain, res.Chain)
				}
				if res.Case != 1 && res.Case != 2 {
					t.Fatalf("seed %d: case %d", seed, res.Case)
				}

				layout, err := DiscoverLayout(locked.Circuit)
				if err != nil {
					t.Fatal(err)
				}
				satExt, err := NewSATExtractor(locked.Circuit, layout, nil)
				if err != nil {
					t.Fatal(err)
				}
				simExt, err := NewSimExtractor(locked.Circuit, layout, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, active := range []int{1, 2} {
					assign := hypothesisAssign(locked.Circuit, layout, active)
					got, err := satExt.DIPs(assign)
					if err != nil {
						t.Fatal(err)
					}
					want, err := simExt.DIPs(assign)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("seed %d hypothesis %d: SAT extractor found %d DIPs, exhaustive simulation %d (sets differ)",
							seed, active, got.Count(), want.Count())
					}
				}
			}
		})
	}
}

// TestEngineEncodesOnceAcrossAttack runs a full SAT-path attack and
// checks the engine contract: exactly one Tseitin encoding for the whole
// attack — both hypotheses, every calibration candidate, every verifier
// query — with every subsequent solve session counted as an avoided
// re-encode.
func TestEngineEncodesOnceAcrossAttack(t *testing.T) {
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
	// SATWidthLimit pins the SAT regime: the engine contract under test
	// only applies when the SAT extractor runs the attack.
	res, err := Run(Options{Locked: locked.Circuit, Oracle: orc, Telemetry: tel, SATWidthLimit: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCorrectCASKey(res.Key) {
		t.Fatal("recovered key incorrect")
	}
	snap := tel.Snapshot()
	if got := snap.Counters["engine_encodings_total"]; got != 1 {
		t.Fatalf("engine_encodings_total = %d, want exactly 1", got)
	}
	if snap.Counters["engine_encodings_avoided_total"] == 0 {
		t.Fatal("no avoided re-encodes counted: the persistent engine is not being reused")
	}
	if snap.Counters["sat_solve_calls_total"] == 0 {
		t.Fatal("sat_* counter continuity broken on the engine path")
	}
}
