package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/attack"
	"repro/internal/faults"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// The scheme-versus-attack matrix: every locking scheme in this
// repository against every attack, one fresh instance per cell. It is
// the executable version of the survey table the paper's introduction
// walks through (SAT breaks RLL; Anti-SAT/SARLock stop SAT but fall to
// bypass/removal; SFLL resists bypass; CAS-Lock stops all of the above
// and falls to DIP learning). Rows and columns are enumerated from the
// scheme registry (internal/lock) and the attack registry
// (internal/attack): registering a new scheme or attack grows the grid
// with no change here.

// MatrixCell is one scheme/attack outcome.
type MatrixCell struct {
	Scheme, Attack string
	// Broken means the attack produced an exact functional break
	// (SAT-proven equivalent circuit or correct key).
	Broken bool
	// Detail is a short human-readable outcome.
	Detail string
	Time   time.Duration
}

// MatrixOptions tunes a matrix run.
type MatrixOptions struct {
	// Context bounds the whole grid; a deadline or cancellation
	// propagates into the DIP-learning cells and stops the pool. Nil
	// means context.Background().
	Context context.Context
	// HostInputs is the shared host's primary-input count.
	HostInputs int
	// SATCap bounds SAT/AppSAT iterations per cell.
	SATCap int
	// Seed fixes host generation, locking and attack sampling.
	Seed int64
	// Workers bounds the cell pool (≤ 0 means GOMAXPROCS).
	Workers int
	// Noise is a per-output-bit flip rate injected into every cell's
	// oracle (0 = clean oracle). Positive noise also arms the resilient
	// decorator's majority voting so the attacks see denoised answers.
	Noise float64
	// Retries is the resilient decorator's transient-retry budget
	// (0 = library default).
	Retries int
	// Telemetry, when non-nil, instruments every cell: the attacks'
	// spans, the fault injectors' and resilient decorators' counters.
	// Cells run concurrently; the registry is race-safe, so one registry
	// aggregates the whole grid.
	Telemetry *telemetry.Registry
	// SATWidthLimit pins the SAT/sim regime boundary in the DIP-learning
	// cells; 0 runs the simulation extractor unless it refuses the
	// instance (see core.Options.SATWidthLimit).
	SATWidthLimit int
	// Schemes restricts the rows to the named schemes (registry names or
	// labels); empty means the full scheme registry.
	Schemes []string
	// Attacks restricts the columns to the named attacks (registry names
	// or labels); empty means the full attack registry.
	Attacks []string
}

// newOracle builds one cell's oracle: the clean simulator, optionally
// behind a deterministic fault injector and the resilient decorator.
func (o MatrixOptions) newOracle(host *netlist.Circuit, seed int64) oracle.Oracle {
	var orc oracle.Oracle = oracle.MustNewSim(host)
	if o.Noise <= 0 && o.Retries <= 0 {
		return orc
	}
	if o.Noise > 0 {
		orc = faults.New(orc, faults.Config{FlipRate: o.Noise, Seed: seed, Telemetry: o.Telemetry})
	}
	votes := 1
	if o.Noise > 0 {
		votes = 5
	}
	return oracle.NewResilient(orc, oracle.ResilientOptions{Retries: o.Retries, Votes: votes, Seed: seed, Telemetry: o.Telemetry})
}

// resolveGrid expands the option filters against the registries,
// preserving registry order for unfiltered axes and request order for
// filtered ones.
func (o MatrixOptions) resolveGrid() ([]lock.Scheme, []attack.Attack, error) {
	var rows []lock.Scheme
	if len(o.Schemes) == 0 {
		rows = lock.Schemes()
	} else {
		for _, name := range o.Schemes {
			s, ok := lock.SchemeByName(name)
			if !ok {
				return nil, nil, fmt.Errorf("experiments: unknown scheme %q (have: %s)", name, lock.SchemeUniverse())
			}
			rows = append(rows, s)
		}
	}
	var cols []attack.Attack
	if len(o.Attacks) == 0 {
		cols = attack.Attacks()
	} else {
		for _, name := range o.Attacks {
			a, ok := attack.AttackByName(name)
			if !ok {
				return nil, nil, fmt.Errorf("experiments: unknown attack %q (have: %s)", name, attack.Universe())
			}
			cols = append(cols, a)
		}
	}
	return rows, cols, nil
}

// RunMatrix evaluates every attack against every scheme with the
// default worker pool (GOMAXPROCS) and no deadline.
func RunMatrix(hostInputs, satCap int, seed int64) ([]MatrixCell, error) {
	return RunMatrixWorkers(context.Background(), hostInputs, satCap, seed, 0)
}

// RunMatrixWorkers evaluates the matrix on a bounded pool of workers
// with a clean oracle; see RunMatrixOptions for the full knob set.
func RunMatrixWorkers(ctx context.Context, hostInputs, satCap int, seed int64, workers int) ([]MatrixCell, error) {
	return RunMatrixOptions(MatrixOptions{
		Context: ctx, HostInputs: hostInputs, SATCap: satCap, Seed: seed, Workers: workers,
	})
}

// RunMatrixOptions evaluates the matrix on a bounded pool of workers
// (≤ 0 means GOMAXPROCS). Cells are independent: every cell locks and
// attacks its own clone of the shared host (netlist circuits cache
// their topological order lazily and simulators are single-goroutine
// objects, so sharing one host across concurrent cells would race).
// Cell order — and every cell's outcome, which is fixed by the seeds —
// is independent of the worker count.
func RunMatrixOptions(mo MatrixOptions) ([]MatrixCell, error) {
	rows, cols, err := mo.resolveGrid()
	if err != nil {
		return nil, err
	}
	host, err := synth.Generate(synth.Config{
		Name: "mx", Inputs: mo.HostInputs, Outputs: 4, Gates: 70, Seed: mo.Seed,
	})
	if err != nil {
		return nil, err
	}
	// Warm the lazy topo-order cache before the clones fan out.
	if _, err := host.TopoOrder(); err != nil {
		return nil, err
	}
	nCols := len(cols)
	return RunIndexed(mo.Context, len(rows)*nCols, mo.Workers, func(ctx context.Context, idx int) (MatrixCell, error) {
		si, ai := idx/nCols, idx%nCols
		sch, atk := rows[si], cols[ai]
		h := host.Clone()
		locked, keyCheck, err := sch.Apply(h, mo.Seed+int64(si))
		if err != nil {
			return MatrixCell{}, err
		}
		seed := mo.Seed
		start := time.Now()
		out := atk.Run(&attack.Context{
			Ctx: ctx, Locked: locked.Circuit, Host: h,
			KeyCheck: keyCheck, MCAS: sch.MCAS,
			NewOracle: func() oracle.Oracle { return mo.newOracle(h, seed^int64(idx)<<20) },
			SATCap:    mo.SATCap, Seed: seed,
			Telemetry: mo.Telemetry, SATWidthLimit: mo.SATWidthLimit,
		})
		return MatrixCell{
			Scheme: sch.Label, Attack: atk.Label,
			Broken: out.Broken, Detail: out.Detail, Time: time.Since(start),
		}, nil
	})
}

// PrintMatrix renders the matrix with schemes as rows. Row and column
// order follow first appearance in the cell slice, which RunMatrix
// emits in registry order.
func PrintMatrix(w io.Writer, cells []MatrixCell) {
	byKey := map[string]MatrixCell{}
	var schemes, attacks []string
	seenS, seenA := map[string]bool{}, map[string]bool{}
	for _, c := range cells {
		byKey[c.Scheme+"/"+c.Attack] = c
		if !seenS[c.Scheme] {
			seenS[c.Scheme] = true
			schemes = append(schemes, c.Scheme)
		}
		if !seenA[c.Attack] {
			seenA[c.Attack] = true
			attacks = append(attacks, c.Attack)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "scheme")
	for _, a := range attacks {
		fmt.Fprintf(tw, "\t%s", a)
	}
	fmt.Fprintln(tw)
	for _, s := range schemes {
		fmt.Fprint(tw, s)
		for _, a := range attacks {
			c := byKey[s+"/"+a]
			mark := "✗"
			if c.Broken {
				mark = "BROKEN"
			}
			fmt.Fprintf(tw, "\t%s", mark)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
	for _, s := range schemes {
		for _, a := range attacks {
			c := byKey[s+"/"+a]
			fmt.Fprintf(w, "%-9s × %-13s %s\n", s, a, c.Detail)
		}
	}
}
