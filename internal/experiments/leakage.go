package experiments

import (
	"fmt"
	"math/big"

	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// The paper's conclusion proposes extending DIP learning to other
// locking schemes. This file carries that extension out for SFLL-HD^h:
// the *size* of the DIP set between two chosen keys is a closed-form
// function of the scheme's secret Hamming-distance parameter h, so h
// leaks from one miter enumeration — no structural analysis, exactly in
// the spirit of the CAS-Lock attack.
//
// For keys k and k⊕e1 (differing in one protected bit), an input X is a
// DIP iff exactly one of HD(X,k) = h, HD(X,k⊕e1) = h holds. Writing
// d = HD(X,k) and splitting on the differing bit, the two conditions are
// disjoint with sizes C(n,h) and C(n-1,h-1)+C(n-1,h), so by Pascal's
// rule
//
//	#DIPs(h) = 2·C(n,h)
//
// over the n protected inputs (the 2^(inputs-n) completions are
// quotiented away by block-projection enumeration). The count pins h up
// to the inherent C(n,h) = C(n,n-h) symmetry; published SFLL instances
// use h < n/2, where the smaller solution is the parameter.

// SFLLLeakResult reports the h-leakage experiment.
type SFLLLeakResult struct {
	N, TrueH  int
	DIPCount  uint64
	Predicted uint64 // closed form at the true h
	LearnedH  int
	Success   bool
}

// SFLLLeakCount is the closed-form DIP count 2·C(n,h) for parameter h
// over n protected bits (see the derivation above).
func SFLLLeakCount(n, h int) uint64 {
	if h < 0 || h > n {
		return 0
	}
	return 2 * new(big.Int).Binomial(int64(n), int64(h)).Uint64()
}

// LeakSFLLH locks a host with SFLL-HD^h and recovers h purely from the
// DIP count of a two-key miter (keys all-0 and e1), enumerated by the
// attack's SAT engine with blocking clauses over the protected inputs.
func LeakSFLLH(hostInputs, n, h int, seed int64) (*SFLLLeakResult, error) {
	host, err := synth.Generate(synth.Config{
		Name: "sfllleak", Inputs: hostInputs, Outputs: 3, Gates: 50, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	locked, inst, err := lock.ApplySFLLHD(host, n, h, seed+1)
	if err != nil {
		return nil, err
	}
	// Two-copy miter with keys 0…0 and 10…0 over the protected inputs.
	k1 := make([]bool, n)
	k2 := make([]bool, n)
	k2[0] = true
	count, err := countSFLLDIPs(locked.Circuit, inst, k1, k2)
	if err != nil {
		return nil, err
	}
	learned := -1
	for cand := 0; cand <= n; cand++ {
		if SFLLLeakCount(n, cand) == count {
			learned = cand
			break
		}
	}
	return &SFLLLeakResult{
		N: n, TrueH: h,
		DIPCount:  count,
		Predicted: SFLLLeakCount(n, h),
		LearnedH:  learned,
		Success:   learned == h,
	}, nil
}

// countSFLLDIPs counts the patterns over the protected inputs on which
// the locked circuit under k1 disagrees with it under k2, on the
// attack's incremental engine (key-differential miter, blocking clauses
// projected onto the protected inputs).
func countSFLLDIPs(locked *netlist.Circuit, inst *lock.SFLLInstance, k1, k2 []bool) (uint64, error) {
	eng, err := engine.New(locked, inst.InputSel, nil)
	if err != nil {
		return 0, err
	}
	var count uint64
	err = eng.EnumerateDIPs(k1, k2, func(uint64) bool {
		count++
		return count <= 1<<22
	})
	if err != nil {
		return 0, err
	}
	if count > 1<<22 {
		return 0, fmt.Errorf("experiments: SFLL DIP enumeration exceeded 2^22 patterns")
	}
	return count, nil
}
