package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
)

// workload is one input set the benchmark runs. Every workload is a
// closed loop with one op in flight; inputs are generated from the seed
// outside the timed region and reach the program only as .bench text.
type workload struct {
	name string
	why  string
	run  func(r *runner) error
}

var workloads = []workload{
	{"tablei32", "paper Table I, |K|=32: DIP-rich, so the O(m) verify phase and the oracle dominate", runTableI32},
	{"k52_walk", "52-bit key, ORs near the chain head, sim regime pinned: the 2^26 simulation walk dominates, oracle and verify barely run", runK52Walk},
	{"sat_capped", "registry SAT attack capped at 32 iterations on cas/antisat/sarlock: the CDCL solver dominates", runSATCapped},
	{"served", "caslock-served round trips, ~30% repeats: cache-hit read path beside full attack runs", runServed},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minTimedOps keeps op_p90_ms meaningful: at least ten samples lie
// beyond the 90th percentile of 100 ops.
const minTimedOps = 100

// runner drives one workload run and collects its end-to-end evidence.
type runner struct {
	seed     int64
	seconds  float64
	fixedOps int // > 0: exactly this many timed ops, regardless of time
	traced   bool
	log      io.Writer

	start     time.Time       // start of the timed region
	latencies []time.Duration // timed ops
	attempted int             // warm-up and timed ops
	failed    int
	queries   uint64 // chip queries of the timed ops
	setups    []time.Duration
	layers    *layers
	workers   string // enumeration worker setting, for the env line
}

// more reports whether the timed loop should start another op.
func (r *runner) more() bool {
	if r.fixedOps > 0 {
		return len(r.latencies) < r.fixedOps
	}
	return len(r.latencies) < minTimedOps || time.Since(r.start).Seconds() < r.seconds
}

// tracedOp decides which ops of a traced run carry instrumentation:
// every other one, so the untraced ops in between measure the tracing
// overhead under the same conditions.
func (r *runner) tracedOp(i int) bool { return r.traced && i%2 == 1 }

// fail counts a failed op and reports the first few.
func (r *runner) fail(i int, err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(r.log, "op %d failed: %v\n", i, err)
	}
}

// prepared is one op with its inputs generated; calling it runs the op
// and returns the chip queries it cost. tr is nil for untraced ops.
type prepared func(tr *opTrace) (queries uint64, err error)

// warmRounds is how many untimed warm-up rounds precede the timed ops;
// each round's wall time is one set-up sample.
const warmRounds = 3

// loop runs warmRounds warm-up rounds of round ops each (one per input
// configuration), then timed ops until the run's time or op budget is
// spent. Op i's inputs come from prepare(i), outside every timer.
func (r *runner) loop(round int, prepare func(i int) (prepared, error)) error {
	i := 0
	for k := 0; k < warmRounds; k++ {
		var spent time.Duration
		for j := 0; j < round; j, i = j+1, i+1 {
			op, err := prepare(i)
			if err != nil {
				return err
			}
			t := time.Now()
			_, err = op(nil)
			spent += time.Since(t)
			r.attempted++
			if err != nil {
				r.fail(i, err)
			}
		}
		r.setups = append(r.setups, spent)
	}
	r.start = time.Now()
	for ; r.more(); i++ {
		op, err := prepare(i)
		if err != nil {
			return err
		}
		var tr *opTrace
		t := time.Now()
		if r.tracedOp(i) {
			tr = startOpTrace()
		}
		q, err := op(tr)
		d := time.Since(t)
		r.attempted++
		r.latencies = append(r.latencies, d)
		r.queries += q
		if err != nil {
			r.fail(i, err)
		}
		switch {
		case tr != nil:
			tr.finish(r.layers, i, d)
		case r.traced:
			r.layers.untraced++
			r.layers.untracedT += d
		}
	}
	return nil
}

// instSeed derives op i's generator seed from the run seed.
func instSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 }

// casInstance is one generated CAS-locked design: the program sees only
// the two .bench texts; check is the ground truth the benchmark keeps.
type casInstance struct {
	lockedText, hostText string
	check                func(key []bool) bool
}

// newCASInstance locks host with chain. Aligned polarities (both blocks
// get the same key-gate types) are the regime whose DIP counts Table I
// prints.
func newCASInstance(host *netlist.Circuit, chain string, seed int64) (*casInstance, error) {
	c, err := lock.ParseChain(chain)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	kg := make([]netlist.GateType, c.NumInputs())
	for i := range kg {
		kg[i] = netlist.Xor
		if rng.Intn(2) == 1 {
			kg[i] = netlist.Xnor
		}
	}
	locked, inst, err := lock.ApplyCAS(host, lock.CASOptions{Chain: c, Seed: seed + 1,
		KeyGates1: kg, KeyGates2: append([]netlist.GateType(nil), kg...)})
	if err != nil {
		return nil, err
	}
	return textInstance(locked.Circuit, host, inst.IsCorrectCASKey)
}

func textInstance(locked, host *netlist.Circuit, check func([]bool) bool) (*casInstance, error) {
	lt, err := bench.WriteString(locked)
	if err != nil {
		return nil, err
	}
	ht, err := bench.WriteString(host)
	if err != nil {
		return nil, err
	}
	return &casInstance{lockedText: lt, hostText: ht, check: check}, nil
}

// parse reads the instance's texts back through the bench layer.
func (in *casInstance) parse(tr *opTrace) (locked, host *netlist.Circuit, err error) {
	sp := tr.span("bench.parse")
	defer sp.End()
	if locked, err = bench.ReadString("locked", in.lockedText); err != nil {
		return nil, nil, err
	}
	if host, err = bench.ReadString("host", in.hostText); err != nil {
		return nil, nil, err
	}
	return locked, host, nil
}

// buildOracle wraps host as the activated chip; traced ops get the
// timing wrapper on top.
func buildOracle(host *netlist.Circuit, tr *opTrace) (*oracle.Sim, oracle.Oracle, *timedOracle, error) {
	sp := tr.span("oracle.build")
	sim, err := oracle.NewSim(host)
	sp.End()
	if err != nil || tr == nil {
		return sim, sim, nil, err
	}
	to := &timedOracle{inner: sim}
	return sim, to, to, nil
}

// dipOp runs the DIP-learning attack on in with opts and checks the key
// against the instance's ground truth.
func (r *runner) dipOp(in *casInstance, opts core.Options, tr *opTrace) (uint64, error) {
	locked, host, err := in.parse(tr)
	if err != nil {
		return 0, err
	}
	sim, orc, to, err := buildOracle(host, tr)
	if err != nil {
		return 0, err
	}
	opts.Locked, opts.Oracle, opts.Telemetry = locked, orc, tr.registry()
	sp := tr.span("core.run")
	res, err := core.Run(opts)
	sp.End()
	if tr != nil {
		to.record(r.layers)
		if res != nil {
			r.layers.add("core.extractions_per_op", float64(res.Extractions))
			r.layers.add("core.candidates_per_op", float64(res.CandidatesTried))
		}
	}
	if err != nil {
		return sim.Queries(), err
	}
	if !in.check(res.Key) {
		return sim.Queries(), fmt.Errorf("recovered key %v fails the ground-truth check", res.Key)
	}
	return sim.Queries(), nil
}

// tableIRows returns the first Table-I |K|=32 row of each distinct
// chain configuration.
func tableIRows() []experiments.TableIRow {
	var rows []experiments.TableIRow
	seen := make(map[string]bool)
	for _, row := range experiments.TableI32 {
		if !seen[row.Chain] {
			seen[row.Chain] = true
			rows = append(rows, row)
		}
	}
	return rows
}

func tableI32Instance(seed int64, i int) (*casInstance, int64, error) {
	rows := tableIRows()
	row := rows[i%len(rows)]
	s := instSeed(seed, i)
	prof, err := synth.ProfileByName(row.Benchmark)
	if err != nil {
		return nil, 0, err
	}
	host, err := synth.Generate(synth.FromProfile(prof, s))
	if err != nil {
		return nil, 0, err
	}
	in, err := newCASInstance(host, row.Chain, s)
	return in, s, err
}

func runTableI32(r *runner) error {
	return r.loop(len(tableIRows()), func(i int) (prepared, error) {
		in, s, err := tableI32Instance(r.seed, i)
		if err != nil {
			return nil, err
		}
		return func(tr *opTrace) (uint64, error) {
			return r.dipOp(in, core.Options{Seed: s + 3}, tr)
		}, nil
	})
}

// k52Width is the k52_walk block width: 2·26 = 52 key bits, a 2^26
// pattern walk per enumeration.
const k52Width = 26

// k52Instance locks a small host behind a 26-input AND chain with one to
// three ORs among the first four chain gates, which keeps the DIP set
// (and so the oracle and verify work) tiny while the exhaustive walk
// stays 2^26 patterns.
func k52Instance(seed int64, i int) (*casInstance, int64, error) {
	s := instSeed(seed, i)
	rng := rand.New(rand.NewSource(s))
	gates := make([]string, k52Width-1)
	for j := range gates {
		gates[j] = "A"
	}
	for ors := 0; ors == 0; {
		for j := 0; j < 4; j++ {
			if rng.Intn(3) == 0 {
				gates[j] = "O"
				ors++
			}
		}
	}
	host, err := synth.Generate(synth.Config{Name: "k52", Inputs: k52Width + 4, Outputs: 4, Gates: 100, Seed: s})
	if err != nil {
		return nil, 0, err
	}
	in, err := newCASInstance(host, strings.Join(gates, "-"), s)
	return in, s, err
}

// k52SATWidthLimit pins the crossover rule so k52_walk always walks:
// blocks wider than 12 inputs go to the simulation extractor. Left to
// the timed probe, these instances either let the SAT engine win (no
// walk at all: ~30 ms ops on a 100-gate host), time the probe out at its
// 250 ms cap (~450 ms ops on 1500+-gate hosts), or flip between the two
// from run to run in between.
const k52SATWidthLimit = 12

func runK52Walk(r *runner) error {
	// One enumeration worker keeps the walk on one core, so the op
	// measures the walk rather than how two shards share two cores with
	// the GC and the rest of the machine.
	r.workers = "1"
	return r.loop(1, func(i int) (prepared, error) {
		in, s, err := k52Instance(r.seed, i)
		if err != nil {
			return nil, err
		}
		return func(tr *opTrace) (uint64, error) {
			return r.dipOp(in, core.Options{Seed: s + 3, Workers: 1, SATWidthLimit: k52SATWidthLimit}, tr)
		}, nil
	})
}

// satSchemes are the SAT-resistant schemes sat_capped cycles through.
var satSchemes = []string{"cas", "antisat", "sarlock"}

// satCap is sat_capped's iteration cap; every op must stop on it.
const satCap = 32

func satInstance(seed int64, i int) (*casInstance, int64, error) {
	name := satSchemes[i%len(satSchemes)]
	s := instSeed(seed, i)
	sch, ok := lock.SchemeByName(name)
	if !ok {
		return nil, 0, fmt.Errorf("scheme %q not registered", name)
	}
	host, err := synth.Generate(synth.Config{Name: "sh", Inputs: 16, Outputs: 4, Gates: 120, Seed: s})
	if err != nil {
		return nil, 0, err
	}
	locked, check, err := sch.Apply(host, s)
	if err != nil {
		return nil, 0, err
	}
	in, err := textInstance(locked.Circuit, host, check)
	return in, s, err
}

func runSATCapped(r *runner) error {
	sat, ok := attack.AttackByName("sat")
	if !ok {
		return fmt.Errorf("attack %q not registered", "sat")
	}
	want := fmt.Sprintf("capped at %d iters", satCap)
	return r.loop(len(satSchemes), func(i int) (prepared, error) {
		in, s, err := satInstance(r.seed, i)
		if err != nil {
			return nil, err
		}
		return func(tr *opTrace) (uint64, error) {
			locked, host, err := in.parse(tr)
			if err != nil {
				return 0, err
			}
			sim, orc, to, err := buildOracle(host, tr)
			if err != nil {
				return 0, err
			}
			sp := tr.span("attack.run")
			out := sat.Run(&attack.Context{Locked: locked, Host: host, KeyCheck: in.check,
				NewOracle: func() oracle.Oracle { return orc }, SATCap: satCap, Seed: s,
				Telemetry: tr.registry()})
			sp.End()
			if tr != nil {
				to.record(r.layers)
				r.layers.add("attack.iterations", satCap)
			}
			if out.Broken || out.Detail != want {
				return sim.Queries(), fmt.Errorf("verdict %q, want %q", out.Detail, want)
			}
			return sim.Queries(), nil
		}, nil
	})
}
