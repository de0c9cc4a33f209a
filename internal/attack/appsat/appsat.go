// Package appsat implements AppSAT (Shamsi et al., HOST 2017), the
// approximate variant of the SAT attack: the DIP loop is interleaved
// with random oracle sampling, and the attack settles for a key whose
// estimated error rate falls below a threshold. Against
// low-corruptibility schemes like Anti-SAT and CAS-Lock this terminates
// quickly with an *approximate* key — the design goal of those schemes —
// whereas on traditional locking it converges to an exact key. It is the
// third baseline the DIP-learning attack is contrasted with: AppSAT
// trades exactness for termination, the paper's attack gets both.
//
// The attack runs on the persistent incremental-SAT engine
// (internal/engine): the key-differential miter is encoded once, DIP and
// reinforcement constraints live in an assumption-guarded session scope,
// and learned clauses persist across the run. Candidate keys are
// extracted lex-min, so they are a function of the constraint set alone,
// not of the solver's model choice.
package appsat

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/sat"
	"repro/internal/telemetry"
)

// Options tunes the attack.
type Options struct {
	// RoundInterval is the number of DIP iterations between sampling
	// rounds (default 8).
	RoundInterval int
	// SamplesPerRound is the number of random oracle queries per
	// sampling round (default 64).
	SamplesPerRound int
	// ErrorThreshold is the estimated error rate below which the
	// current candidate is accepted as the approximate key (default:
	// accept only a perfect sample, i.e. < 1/SamplesPerRound).
	ErrorThreshold float64
	// MaxIterations bounds the DIP loop (0 = 4096).
	MaxIterations int
	// Seed drives sampling.
	Seed int64
	// Context, when non-nil, bounds the run: the solver watches it, and
	// a cancelled or expired run returns the context's error.
	Context context.Context
	// Telemetry instruments the run (attack_* span + engine families).
	Telemetry *telemetry.Registry
}

// Result reports the attack outcome.
type Result struct {
	// Key is the recovered (possibly approximate) key.
	Key []bool
	// Exact is true when the miter became UNSAT (the SAT attack's own
	// termination), i.e. the key is provably correct.
	Exact bool
	// ErrorEstimate is the sampled disagreement rate of Key at
	// termination (0 for exact keys).
	ErrorEstimate float64
	// Iterations is the number of DIPs consumed.
	Iterations int
	// OracleQueries counts oracle patterns consumed.
	OracleQueries uint64
}

// Run mounts AppSAT on a locked netlist with oracle access.
func Run(locked *netlist.Circuit, orc oracle.Oracle, opts Options) (*Result, error) {
	if opts.RoundInterval <= 0 {
		opts.RoundInterval = 8
	}
	if opts.SamplesPerRound <= 0 {
		opts.SamplesPerRound = 64
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 4096
	}
	if locked.NumInputs() != orc.NumInputs() || locked.NumOutputs() != orc.NumOutputs() {
		return nil, fmt.Errorf("appsat: locked netlist I/O does not match oracle")
	}
	sp := opts.Telemetry.StartSpan("attack_appsat")
	defer sp.End()
	be, err := engine.New(locked, nil, &engine.Env{Ctx: opts.Context, Tel: opts.Telemetry, Phase: "appsat"})
	if err != nil {
		return nil, err
	}

	ses, err := be.OpenSession()
	if err != nil {
		return nil, err
	}
	defer ses.Close()
	extractKey := func() ([]bool, error) {
		key, st, err := ses.ExtractKey()
		if err != nil {
			return nil, err
		}
		if st != sat.Sat {
			return nil, fmt.Errorf("appsat: key extraction returned %v", st)
		}
		return key, nil
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	sim, err := netlist.NewSimulator(locked)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for {
		// Sampling round.
		if res.Iterations > 0 && res.Iterations%opts.RoundInterval == 0 {
			key, err := extractKey()
			if err != nil {
				return nil, err
			}
			disagree := 0
			var failIn []bool
			var failOut []bool
			for s := 0; s < opts.SamplesPerRound; s++ {
				in := make([]bool, locked.NumInputs())
				for i := range in {
					in[i] = rng.Intn(2) == 1
				}
				want, err := orc.Query(in)
				if err != nil {
					return nil, err
				}
				res.OracleQueries++
				got, err := sim.Run(in, key)
				if err != nil {
					return nil, err
				}
				for i := range want {
					if want[i] != got[i] {
						disagree++
						failIn = append([]bool(nil), in...)
						failOut = append([]bool(nil), want...)
						break
					}
				}
			}
			errRate := float64(disagree) / float64(opts.SamplesPerRound)
			if errRate <= opts.ErrorThreshold {
				res.Key = key
				res.ErrorEstimate = errRate
				return res, nil
			}
			// Reinforce: the worst sampled disagreement becomes an IO
			// constraint for both key copies (AppSAT's amendment step).
			if failIn != nil {
				if err := ses.Constrain(failIn, failOut); err != nil {
					return nil, err
				}
			}
		}
		if res.Iterations >= opts.MaxIterations {
			key, err := extractKey()
			if err != nil {
				return nil, err
			}
			res.Key = key
			res.ErrorEstimate = 1
			return res, nil
		}
		// One DIP iteration.
		dip, st, err := ses.FindDIP()
		if err != nil {
			return nil, err
		}
		if st == sat.Unsat {
			key, err := extractKey()
			if err != nil {
				return nil, err
			}
			res.Key = key
			res.Exact = true
			return res, nil
		}
		res.Iterations++
		out, err := orc.Query(dip)
		if err != nil {
			return nil, err
		}
		res.OracleQueries++
		if err := ses.Constrain(dip, out); err != nil {
			return nil, err
		}
	}
}
