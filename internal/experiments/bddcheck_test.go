package experiments

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/synth"
)

func uniformKG(n int, t netlist.GateType) []netlist.GateType {
	out := make([]netlist.GateType, n)
	for i := range out {
		out[i] = t
	}
	return out
}

// TestBDDCountMatchesTableI verifies the paper's Table I DIP counts with
// the symbolic engine — including the 32-input-block (64-bit-key)
// configurations, in milliseconds instead of the minutes exhaustive
// enumeration needs.
func TestBDDCountMatchesTableI(t *testing.T) {
	cases := map[string]int64{
		"A-O-2A-O-2A-O-2A-O-2A-O-A": 18725,
		"2A-O-5A-O-2A-2O-2A":        12809,
		"O-6A-O-5A-O-A":             16643,
		"14A-O":                     32767, // miter-visible count (see EXPERIMENTS.md)
		"3A-2O-3A-2O-3A-O-A":        17969,
		"2A-O-2(4A-O)-2(2A-O)-12A":  598281,
		"4A-O-3(5A-O)-8A":           8521761,
		"2A-O-9A-O-4A-O-2A-O-10A":   2367497,
	}
	for cfg, want := range cases {
		chain := lock.MustParseChain(cfg)
		n := chain.NumInputs()
		kg := uniformKG(n, netlist.Xor)
		k1A, k2A, k1B, k2B := BDDLemma1Assignment(chain)
		got, err := BDDDIPCount(chain, kg, kg, k1A, k2A, k1B, k2B)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if got.Cmp(big.NewInt(want)) != 0 {
			t.Errorf("%s: BDD count %v, want %d", cfg, got, want)
		}
	}
}

// TestBDDCountMatchesExtraction cross-checks the symbolic count against
// the brute-force pair evaluator and the simulation extractor on random
// instances with independent key gates (where |I_l| deviates from the
// closed form).
func TestBDDCountMatchesExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	keyRng := rand.New(rand.NewSource(82)) // wrong keys; rng alone draws the instances
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(5)
		chain := make(lock.ChainConfig, n-1)
		for i := range chain {
			if rng.Intn(2) == 0 {
				chain[i] = lock.ChainOr
			}
		}
		kg1 := make([]netlist.GateType, n)
		kg2 := make([]netlist.GateType, n)
		for i := 0; i < n; i++ {
			kg1[i], kg2[i] = netlist.Xor, netlist.Xor
			if rng.Intn(2) == 0 {
				kg1[i] = netlist.Xnor
			}
			if rng.Intn(2) == 0 {
				kg2[i] = netlist.Xnor
			}
		}
		k1A, k2A, k1B, k2B := BDDLemma1Assignment(chain)
		symbolic, err := BDDDIPCount(chain, kg1, kg2, k1A, k2A, k1B, k2B)
		if err != nil {
			t.Fatal(err)
		}
		// Concrete: brute-force over the block space with the pair
		// evaluator.
		concrete := int64(0)
		x := make([]uint64, n)
		for base := uint64(0); base < 1<<uint(n); base += 64 {
			for i := 0; i < n; i++ {
				if i < 6 {
					x[i] = lanePatternWord(i)
				} else if base&(1<<uint(i)) != 0 {
					x[i] = ^uint64(0)
				} else {
					x[i] = 0
				}
			}
			gA, gbA := lock.EvalCASPair(chain, kg1, kg2, k1A, k2A, x)
			gB, gbB := lock.EvalCASPair(chain, kg1, kg2, k1B, k2B, x)
			diff := (gA & gbA) ^ (gB & gbB)
			if lim := (uint64(1) << uint(n)) - base; lim < 64 {
				diff &= (uint64(1) << lim) - 1
			}
			concrete += int64(bits.OnesCount64(diff))
			if uint64(1)<<uint(n) <= 64 {
				break
			}
		}
		if symbolic.Cmp(big.NewInt(concrete)) != 0 {
			t.Errorf("trial %d (%s): symbolic %v, concrete %d", trial, chain, symbolic, concrete)
		}

		// The simulation extractor's count for (correct key, random
		// wrong key) — the count MeasureCorruptibility takes — against
		// the symbolic count of the same pair.
		host, err := synth.Generate(synth.Config{Name: "bdd", Inputs: n, Outputs: 1, Gates: n, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		locked, inst, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, KeyGates1: kg1, KeyGates2: kg2, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		layout, err := core.DiscoverLayout(locked.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := core.NewSimExtractor(locked.Circuit, layout, int64(trial), nil)
		if err != nil {
			t.Fatal(err)
		}
		wrong := make([]bool, 2*n)
		for i := range wrong {
			wrong[i] = keyRng.Intn(2) == 1
		}
		dips, err := ext.DIPs(core.PairAssign{A: inst.CorrectKey, B: wrong})
		if err != nil {
			t.Fatal(err)
		}
		c1, c2 := inst.CorrectKey[:n], inst.CorrectKey[n:]
		want, err := BDDDIPCount(chain, kg1, kg2, c1, c2, wrong[:n], wrong[n:])
		if err != nil {
			t.Fatal(err)
		}
		if want.Cmp(new(big.Int).SetUint64(dips.Count())) != 0 {
			t.Errorf("trial %d (%s): sim extractor %d DIPs for (correct, wrong), symbolic %v", trial, chain, dips.Count(), want)
		}
	}
}

func lanePatternWord(i int) uint64 {
	switch i {
	case 0:
		return 0xAAAAAAAAAAAAAAAA
	case 1:
		return 0xCCCCCCCCCCCCCCCC
	case 2:
		return 0xF0F0F0F0F0F0F0F0
	case 3:
		return 0xFF00FF00FF00FF00
	case 4:
		return 0xFFFF0000FFFF0000
	default:
		return 0xFFFFFFFF00000000
	}
}

// TestBDDStructuredClassLaw checks, symbolically and at 64-bit scale,
// the law the attack rests on: the larger bit-(n-1) class of the DIP set
// has exactly MaxDIPs patterns, for arbitrary key-gate polarities.
func TestBDDStructuredClassLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	chain := lock.MustParseChain("2A-O-2(4A-O)-2(2A-O)-12A")
	n := chain.NumInputs()
	for trial := 0; trial < 3; trial++ {
		kg1 := make([]netlist.GateType, n)
		kg2 := make([]netlist.GateType, n)
		for i := 0; i < n; i++ {
			kg1[i], kg2[i] = netlist.Xor, netlist.Xor
			if rng.Intn(2) == 0 {
				kg1[i] = netlist.Xnor
			}
			if rng.Intn(2) == 0 {
				kg2[i] = netlist.Xnor
			}
		}
		k1A, k2A, k1B, k2B := BDDLemma1Assignment(chain)
		m := bddManagerForChain(chain)
		yA, err := casPairFlip(m, chain, kg1, kg2, k1A, k2A)
		if err != nil {
			t.Fatal(err)
		}
		yB, err := casPairFlip(m, chain, kg1, kg2, k1B, k2B)
		if err != nil {
			t.Fatal(err)
		}
		diff := m.Xor(yA, yB)
		topVar := m.Var(n - 1)
		c1 := m.SatCount(m.And(diff, topVar))
		c0 := m.SatCount(m.And(diff, m.Not(topVar)))
		bigger := c0
		if c1.Cmp(c0) > 0 {
			bigger = c1
		}
		want := new(big.Int).SetUint64(core.MaxDIPs(chain))
		if bigger.Cmp(want) != 0 {
			t.Errorf("trial %d: big class %v, want %v (classes %v/%v)", trial, bigger, want, c0, c1)
		}
	}
}
