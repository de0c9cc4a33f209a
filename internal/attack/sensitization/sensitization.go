// Package sensitization implements the key-sensitization attack
// (Rajendran et al., DAC 2012): for each key bit, find an input pattern
// that propagates that bit's value to a primary output while muting the
// influence of every other key bit; one oracle query then reveals the
// bit. The attack dissolves randomly inserted key gates (RLL) but is
// blocked by interfering insertions (SLL) — the evolution step the
// paper's introduction recounts before the SAT attack changed the game.
//
// Candidate patterns stream from the persistent engine (∃ pattern and
// background key making the target bit observable), one encoding shared
// by every key bit; the muting requirement is then
// verified by simulation across random background keys, which keeps the
// procedure sound: a bit is only reported when its output image is
// invariant, so the oracle read-out cannot be misattributed.
package sensitization

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// Options bounds the attack.
type Options struct {
	// CandidatesPerBit is how many SAT-proposed patterns to test per key
	// bit before declaring it non-sensitizable (default 8).
	CandidatesPerBit int
	// MuteSamples is the number of random background keys used to verify
	// muting (default 24).
	MuteSamples int
	// Seed drives sampling.
	Seed int64
	// Context, when non-nil, bounds the run.
	Context context.Context
	// Telemetry instruments the run (attack_* span + engine families).
	Telemetry *telemetry.Registry
}

// Result reports which key bits leaked.
type Result struct {
	// Known[i] is true when bit i was resolved; Key[i] then holds its
	// value.
	Known []bool
	Key   []bool
	// Resolved counts the known bits.
	Resolved int
	// OracleQueries counts oracle patterns consumed.
	OracleQueries uint64
}

// Run mounts the sensitization attack.
func Run(locked *netlist.Circuit, orc oracle.Oracle, opts Options) (*Result, error) {
	if opts.CandidatesPerBit <= 0 {
		opts.CandidatesPerBit = 8
	}
	if opts.MuteSamples <= 0 {
		opts.MuteSamples = 24
	}
	nk := locked.NumKeys()
	if nk == 0 {
		return nil, fmt.Errorf("sensitization: circuit has no key inputs")
	}
	if locked.NumInputs() != orc.NumInputs() {
		return nil, fmt.Errorf("sensitization: oracle input width mismatch")
	}
	sp := opts.Telemetry.StartSpan("attack_sensitization")
	defer sp.End()
	rng := rand.New(rand.NewSource(opts.Seed))
	sim, err := netlist.NewSimulator(locked)
	if err != nil {
		return nil, err
	}
	res := &Result{Known: make([]bool, nk), Key: make([]bool, nk)}

	be, err := engine.New(locked, nil, &engine.Env{Ctx: opts.Context, Tel: opts.Telemetry, Phase: "sensitization"})
	if err != nil {
		return nil, err
	}
	// propose streams up to CandidatesPerBit sensitization candidates for
	// one key bit from the shared encoding, muting-checking each.
	propose := func(bit int) (pattern []bool, outIdx int, v0, v1, found bool, err error) {
		cand := 0
		var innerErr error
		enumErr := be.EnumerateSensitizations(bit, func(pat []bool) bool {
			cand++
			idx, b0, b1, muted, err := checkMuting(locked, sim, pat, bit, opts, rng)
			if err != nil {
				innerErr = err
				return false
			}
			if muted {
				pattern = append([]bool(nil), pat...)
				outIdx, v0, v1, found = idx, b0, b1, true
				return false
			}
			return cand < opts.CandidatesPerBit
		})
		if innerErr != nil {
			return nil, 0, false, false, false, innerErr
		}
		if enumErr != nil {
			return nil, 0, false, false, false, enumErr
		}
		return pattern, outIdx, v0, v1, found, nil
	}

	for bit := 0; bit < nk; bit++ {
		pattern, outIdx, v0, v1, found, err := propose(bit)
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		want, err := orc.Query(pattern)
		if err != nil {
			return nil, err
		}
		res.OracleQueries++
		switch want[outIdx] {
		case v0:
			res.Known[bit] = true
			res.Key[bit] = false
			res.Resolved++
		case v1:
			res.Known[bit] = true
			res.Key[bit] = true
			res.Resolved++
		}
	}
	return res, nil
}

// checkMuting simulates the pattern under random background keys,
// looking for an output position whose value depends only on the target
// bit: it must differ between the bit's two values and stay constant
// across backgrounds on each side.
func checkMuting(locked *netlist.Circuit, sim *netlist.Simulator, pat []bool, bit int,
	opts Options, rng *rand.Rand) (outIdx int, v0, v1 bool, muted bool, err error) {

	nk := locked.NumKeys()
	no := locked.NumOutputs()
	key := make([]bool, nk)
	alive := make([]bool, no)
	base0 := make([]bool, no)
	base1 := make([]bool, no)
	g0 := make([]bool, no)
	for s := 0; s < opts.MuteSamples; s++ {
		for i := range key {
			key[i] = rng.Intn(2) == 1
		}
		key[bit] = false
		r0, err := sim.Run(pat, key)
		if err != nil {
			return 0, false, false, false, err
		}
		// Copy: the simulator owns its output buffer, so r0 would alias
		// the second Run's result below.
		copy(g0, r0)
		key[bit] = true
		g1, err := sim.Run(pat, key)
		if err != nil {
			return 0, false, false, false, err
		}
		if s == 0 {
			for o := 0; o < no; o++ {
				alive[o] = g0[o] != g1[o]
				base0[o] = g0[o]
				base1[o] = g1[o]
			}
			continue
		}
		for o := 0; o < no; o++ {
			if alive[o] && (g0[o] != base0[o] || g1[o] != base1[o] || g0[o] == g1[o]) {
				alive[o] = false
			}
		}
	}
	for o := 0; o < no; o++ {
		if alive[o] {
			return o, base0[o], base1[o], true, nil
		}
	}
	return 0, false, false, false, nil
}
