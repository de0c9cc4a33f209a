package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// Output corruptibility is the defender-side metric CAS-Lock trades
// against SAT resilience (Shakya et al., CHES'20): for a wrong key, what
// fraction of the block-input space does the flip signal corrupt? The
// paper's Table I discussion ("row 6 verifies that a cascaded chain of
// AND gates terminated by an OR gate produces the maximum output
// corruption") is reproduced here by counting DIPs: the correct key
// never flips, so a wrong key corrupts exactly the patterns of the
// (correct key, wrong key) miter, which the attack's simulation
// extractor enumerates exhaustively.

// CorruptibilityResult summarizes the corruption of one chain config.
type CorruptibilityResult struct {
	Chain string
	// Mean and Max are the corrupted fraction of the block-input space
	// over the sampled wrong keys.
	Mean, Max float64
	// DIPFormula is Lemma 2's count for the same chain — the attack-side
	// cost the corruption trades against.
	DIPFormula uint64
}

// MeasureCorruptibility samples wrong keys for a CAS instance of the
// given chain (random key-gate polarities) and measures the flip rate
// exactly over the whole block space (chain width ≤ 22).
func MeasureCorruptibility(chainCfg string, samples int, seed int64) (*CorruptibilityResult, error) {
	chain, err := lock.ParseChain(chainCfg)
	if err != nil {
		return nil, err
	}
	n := chain.NumInputs()
	if n > 22 {
		return nil, errTooWide(n)
	}
	rng := rand.New(rand.NewSource(seed))
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
	host, err := synth.Generate(synth.Config{
		Name: "corrupt", Inputs: n, Outputs: 1, Gates: n, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	locked, inst, err := lock.ApplyCAS(host, lock.CASOptions{
		Chain: chain, KeyGates1: kg1, KeyGates2: kg2, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	layout, err := core.DiscoverLayout(locked.Circuit)
	if err != nil {
		return nil, err
	}
	ext, err := core.NewSimExtractor(locked.Circuit, layout, seed+2, nil)
	if err != nil {
		return nil, err
	}
	res := &CorruptibilityResult{Chain: chainCfg, DIPFormula: core.MaxDIPs(chain)}
	total := float64(uint64(1) << uint(n))
	wrong := make([]bool, 2*n) // K1 || K2, the locked circuit's key order
	for s := 0; s < samples; s++ {
		// A uniformly random wrong key (rejection-sample out the 2^n
		// correct ones, which are a 2^-n fraction).
		for {
			for i := 0; i < n; i++ {
				wrong[i] = rng.Intn(2) == 1
				wrong[n+i] = rng.Intn(2) == 1
			}
			if !inst.IsCorrectCASKey(wrong) {
				break
			}
		}
		dips, err := ext.DIPs(core.PairAssign{A: inst.CorrectKey, B: wrong})
		if err != nil {
			return nil, err
		}
		frac := float64(dips.Count()) / total
		res.Mean += frac
		if frac > res.Max {
			res.Max = frac
		}
	}
	res.Mean /= float64(samples)
	return res, nil
}

type errTooWide int

func (e errTooWide) Error() string {
	return "experiments: corruptibility measurement limited to 22 chain inputs"
}
