package core

import (
	"context"
	"strconv"
	"time"

	"repro/internal/events"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// This file implements the self-tuning SAT/sim regime boundary. The
// attack has two exact DIP-set extractors — the paper's SAT enumeration
// and exhaustive bit-parallel simulation — whose relative cost depends
// on block width, netlist structure, and how much the persistent engine
// benefits from incremental solving. A fixed width cutoff (the old
// SATWidthLimit = 12 rule) is mis-calibrated in both directions, so when
// the caller does not pin a limit we measure: a few timed wide-kernel
// simulation batches extrapolate to the exhaustive-walk cost, and an
// engine probe under a deadline of that estimate (the solver watches the
// deadline itself) tries to beat it on the real first-hypothesis
// assignment. Whichever side wins the probe runs the attack; the probe's
// engine work is not wasted, since the winning SAT engine keeps its
// learned clauses for the attack proper.

const (
	// crossoverSimProbeBatches is how many 64-pattern batches the sim
	// probe times (a multiple of the wide kernel's bankStride).
	crossoverSimProbeBatches = 64

	// crossoverSimFloor short-circuits the SAT probe: when the full
	// exhaustive walk is estimated below this, simulation is already
	// cheaper than setting up an engine probe.
	crossoverSimFloor = 2 * time.Millisecond

	// crossoverProbeCap bounds the SAT probe's deadline regardless of how
	// slow simulation is predicted to be, so calibration stays a small
	// constant slice of the attack.
	crossoverProbeCap = 250 * time.Millisecond

	// crossoverMaxProbeDIPs bails the SAT probe once this many DIPs have
	// been enumerated: per-DIP blocking work scales linearly, so a set
	// this large is decided on the count, not the clock.
	crossoverMaxProbeDIPs = 1 << 16
)

// lemma1Assign is the attack's first-hypothesis pair assignment (copy A
// carries key 1 on block 1, copy B all zeros) — the probe measures the
// exact workload the enumerate phase runs first.
func lemma1Assign(locked *netlist.Circuit, layout *BlockLayout) PairAssign {
	a := PairAssign{A: make([]bool, locked.NumKeys()), B: make([]bool, locked.NumKeys())}
	for _, pos := range layout.Key1Pos {
		a.A[pos] = true
	}
	return a
}

// newCalibratedSim builds the simulation extractor configured per
// a.opts, self-checking it on the attack's compiled locked netlist.
func (a *attack) newCalibratedSim() (*SimExtractor, error) {
	se, err := newSimExtractor(a.opts.Locked, a.layout, a.opts.Seed, a.env, a.sim)
	if err != nil {
		return nil, err
	}
	se.SetWorkers(a.opts.Workers)
	return se, nil
}

// chooseExtractor resolves the DIP-set engine. A pinned SATWidthLimit
// (> 0) applies the fixed-width rule (SAT up to that width, simulation
// above); otherwise a per-instance calibration probe picks the cheaper
// engine empirically. The decision, both probe costs, and the block
// width land in crossover_* metrics, and the probe runs as the
// "calibrate" phase under the attack's root span. Both extractors share
// the attack's environment.
func (a *attack) chooseExtractor() (Extractor, error) {
	opts, layout, tel := &a.opts, a.layout, a.env.Tel
	n := layout.N()
	// publish mirrors every decision onto the event bus (one event per
	// attack; the estimator reads sim_est_ns as the expected walk cost).
	publish := func(engine, reason string, simEst, satNs time.Duration) {
		if a.env.Bus == nil {
			return
		}
		f := map[string]string{
			"engine": engine,
			"reason": reason,
			"width":  strconv.Itoa(n),
		}
		if simEst > 0 {
			f["sim_est_ns"] = strconv.FormatInt(int64(simEst), 10)
		}
		if satNs > 0 {
			f["sat_probe_ns"] = strconv.FormatInt(int64(satNs), 10)
		}
		a.env.Bus.Publish(events.Event{Type: events.TypeCrossover, Phase: "calibrate", Fields: f})
	}
	if opts.SATWidthLimit > 0 {
		tel.Counter("crossover_pinned_total").Inc()
		if n <= opts.SATWidthLimit {
			publish("sat", "pinned", 0, 0)
			return NewSATExtractor(opts.Locked, layout, a.env)
		}
		publish("sim", "pinned", 0, 0)
		return a.newCalibratedSim()
	}

	tel.Counter("crossover_probes_total").Inc()
	tel.Gauge("crossover_block_width").Set(int64(n))
	ph := a.enterPhase(a.root, "calibrate")
	defer a.exitPhase(ph)
	sp := ph.sp
	var simEst, satNs time.Duration
	pick := func(engine, reason string, ext Extractor) Extractor {
		sp.SetArg("engine", engine)
		sp.SetArg("reason", reason)
		tel.Counter(telemetry.Label("crossover_selected_total", "engine", engine)).Inc()
		publish(engine, reason, simEst, satNs)
		return ext
	}

	se, simErr := a.newCalibratedSim()
	if simErr != nil {
		if n > 30 {
			// Neither engine can take the instance (the SAT extractor caps
			// at 30 chain inputs).
			return nil, simErr
		}
		satExt, err := NewSATExtractor(opts.Locked, layout, a.env)
		if err != nil {
			return nil, err
		}
		return pick("sat", "sim-unavailable", satExt), nil
	}
	if n > 30 {
		return pick("sim", "beyond-sat-cap", se), nil
	}

	// Sim probe: time a few wide batches of the first-hypothesis
	// enumeration and extrapolate to the full exhaustive walk, divided
	// across the shard workers the real run would use.
	assign := lemma1Assign(opts.Locked, layout)
	p, err := se.prepare(assign)
	if err != nil {
		return nil, err
	}
	nBatches := p.numBatches()
	probeB := uint64(crossoverSimProbeBatches)
	if probeB > nBatches {
		probeB = nBatches
	}
	simStart := time.Now()
	if err := p.enumerateShard(nil, 0, probeB, func(uint64, []uint64) {}); err != nil {
		return nil, err
	}
	perBatch := time.Since(simStart) / time.Duration(probeB)
	if perBatch <= 0 {
		perBatch = 1
	}
	simEst = perBatch * time.Duration(nBatches) / time.Duration(se.shardPlan(nBatches))
	tel.Gauge("crossover_sim_probe_ns").Set(int64(simEst))
	sp.SetArg("sim_est_ns", strconv.FormatInt(int64(simEst), 10))
	if simEst <= crossoverSimFloor {
		return pick("sim", "sim-floor", se), nil
	}

	// SAT probe: give the persistent engine a deadline equal to the sim
	// estimate (capped) and let it race the same enumeration. The
	// solver abandons its search when that deadline passes. The
	// deadline bounds the probe only: the attack's own context is back
	// in the shared environment before the winner runs.
	satExt, err := NewSATExtractor(opts.Locked, layout, a.env)
	if err != nil {
		return pick("sim", "sat-unavailable", se), nil
	}
	budget := simEst
	if budget > crossoverProbeCap {
		budget = crossoverProbeCap
	}
	ctx := a.env.Ctx
	probeCtx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	a.env.Ctx = probeCtx
	defer func() { a.env.Ctx = ctx }()
	eng, err := satExt.engine()
	if err != nil || eng == nil {
		return pick("sim", "engine-unavailable", se), nil
	}
	satStart := time.Now()
	var dips uint64
	overflow := false
	enumErr := eng.EnumerateDIPs(assign.A, assign.B, func(uint64) bool {
		dips++
		if dips >= crossoverMaxProbeDIPs {
			overflow = true
			return false
		}
		return true
	})
	satNs = time.Since(satStart)
	tel.Gauge("crossover_sat_probe_ns").Set(int64(satNs))
	sp.SetArg("sat_probe_ns", strconv.FormatInt(int64(satNs), 10))
	sp.SetArg("sat_probe_dips", strconv.FormatUint(dips, 10))
	if enumErr == nil && !overflow {
		// The engine finished the first hypothesis' full enumeration
		// inside the sim estimate; it keeps the learned clauses, so the
		// attack's own extraction replays at assumption-switch cost.
		return pick("sat", "probe-won", satExt), nil
	}
	reason := "probe-timeout"
	if overflow {
		reason = "probe-dip-overflow"
	}
	return pick("sim", reason, se), nil
}
