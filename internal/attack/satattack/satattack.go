// Package satattack implements the oracle-guided SAT attack of
// Subramanyan, Ray and Malik (HOST 2015), the baseline every
// SAT-resilient locking scheme (including CAS-Lock) is designed to
// defeat. The attack repeatedly finds distinguishing input patterns with
// a key-differential miter, constrains both key copies to agree with the
// oracle on each DIP, and terminates when no further DIP exists — at
// which point any key satisfying the accumulated constraints is correct.
//
// The attack runs on the persistent incremental-SAT engine
// (internal/engine): the miter is encoded once, per-DIP IO constraints
// live in an assumption-guarded scope, and learned clauses persist
// across the whole run. On completion it extracts the lexicographically
// smallest correct key, a canonical representative independent of the
// DIP sequence.
package satattack

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/sat"
	"repro/internal/telemetry"
)

// Options bounds the attack.
type Options struct {
	// MaxIterations stops the DIP loop early (0 = unlimited). SAT-hard
	// schemes like CAS-Lock need an exponential number of iterations, so
	// benchmarks set a cap to measure "did not finish".
	MaxIterations int
	// Context, when non-nil, bounds the run: the solver watches it, and
	// a cancelled or expired run returns the context's error.
	Context context.Context
	// Telemetry instruments the run (attack_* span + engine families).
	Telemetry *telemetry.Registry
}

// Result reports the attack outcome.
type Result struct {
	// Key is the recovered key (nil when the attack hit a bound).
	Key []bool
	// Iterations is the number of DIPs used.
	Iterations int
	// Completed is true when the attack proved key correctness (the
	// miter became UNSAT), false when it stopped on a bound.
	Completed bool
	// OracleQueries is the number of oracle patterns consumed.
	OracleQueries uint64
	// SolverStats aggregates the SAT work of this run.
	SolverStats sat.Stats
}

// Run mounts the SAT attack on a locked netlist with black-box oracle
// access.
func Run(locked *netlist.Circuit, orc oracle.Oracle, opts Options) (*Result, error) {
	if locked.NumInputs() != orc.NumInputs() || locked.NumOutputs() != orc.NumOutputs() {
		return nil, fmt.Errorf("satattack: locked netlist I/O (%d/%d) does not match oracle (%d/%d)",
			locked.NumInputs(), locked.NumOutputs(), orc.NumInputs(), orc.NumOutputs())
	}
	sp := opts.Telemetry.StartSpan("attack_satattack")
	defer sp.End()
	be, err := engine.New(locked, nil, &engine.Env{Ctx: opts.Context, Tel: opts.Telemetry, Phase: "satattack"})
	if err != nil {
		return nil, err
	}
	statsBase := be.Stats()

	ses, err := be.OpenSession()
	if err != nil {
		return nil, err
	}
	defer ses.Close()

	res := &Result{}
	queriesBefore := countQueries(orc)
	finish := func() *Result {
		res.SolverStats = be.Stats().Diff(statsBase)
		res.OracleQueries = countQueries(orc) - queriesBefore
		return res
	}

	for {
		if opts.MaxIterations > 0 && res.Iterations >= opts.MaxIterations {
			return finish(), nil
		}
		dip, st, err := ses.FindDIP()
		if err != nil {
			return nil, err
		}
		if st == sat.Unsat {
			break // no more DIPs: constraints pin a correct key
		}
		res.Iterations++
		out, err := orc.Query(dip)
		if err != nil {
			return nil, err
		}
		if err := ses.Constrain(dip, out); err != nil {
			return nil, err
		}
	}

	key, st, err := ses.ExtractKey()
	if err != nil {
		return nil, err
	}
	if st != sat.Sat {
		return nil, fmt.Errorf("satattack: final key extraction returned %v", st)
	}
	res.Key = key
	res.Completed = true
	return finish(), nil
}

func countQueries(orc oracle.Oracle) uint64 {
	if s, ok := orc.(*oracle.Sim); ok {
		return s.Queries()
	}
	return 0
}
