package core

import (
	"context"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
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
// simulation batches extrapolate to the exhaustive-walk cost, and a
// conflict-budgeted engine probe (deadline-sliced via the engine's EWMA
// budgeter) tries to beat that estimate on the real first-hypothesis
// assignment. Whichever side wins the probe runs the attack; the probe's
// engine work is not wasted, since the winning SAT engine keeps its
// learned clauses for the attack proper.

const (
	// crossoverSimProbeBatches is how many 64-pattern batches the sim
	// probe times (a multiple of the widest lane group).
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

// probeMemo remembers probe-decided crossover outcomes ("sat" or "sim")
// keyed by canonical netlist hash and worker count. Benchmark sweeps and
// the attack service run many attacks over the same locked instance;
// the probe's answer is a property of the instance, not the run, so
// repeat attacks skip the calibration cost entirely. Only outcomes the
// SAT-vs-sim race actually decided are memoized — structural shortcuts
// (beyond-sat-cap, sim-floor, *-unavailable) are already cheap and may
// depend on transient conditions.
var probeMemo = cache.NewLRU[string, string](64)

// resetProbeMemo clears the memo; tests use it to force a fresh probe.
func resetProbeMemo() { probeMemo = cache.NewLRU[string, string](64) }

// probeMemoKey identifies a crossover decision's scope. Empty when the
// netlist cannot be canonicalized (the attack will fail later anyway).
func probeMemoKey(opts *Options) string {
	canon, err := bench.Canonical(opts.Locked)
	if err != nil {
		return ""
	}
	return cache.SumParts(canon) + "|w" + strconv.Itoa(opts.Workers)
}

// newCalibratedSAT builds the SAT extractor for opts. When a warm pool
// is configured, an idle engine parked under this instance's key is
// adopted instead of building (and encoding) fresh.
func newCalibratedSAT(opts *Options, layout *BlockLayout) (*SATExtractor, error) {
	se, err := NewSATExtractor(opts.Locked, layout)
	if err != nil {
		return nil, err
	}
	if key := enginePoolKey(opts); key != "" {
		if eng := opts.EnginePool.Take(key); eng != nil {
			se.SetBackend(eng)
		}
	}
	return se, nil
}

// enginePoolKey scopes warm-pool entries by the caller's netlist
// identity (EngineKey). Empty when pooling is off.
func enginePoolKey(opts *Options) string {
	if opts.EnginePool == nil {
		return ""
	}
	return opts.EngineKey
}

// crossoverCell names a crossover decision's scope for per-cell metric
// mirrors: the canonical-hash prefix of the instance plus its block
// width. Per-process gauges like crossover_sim_probe_ns record only the
// last decision, which self-overwrites across a lockbench matrix run;
// the labeled mirrors keep every cell's probe evidence visible at once.
func crossoverCell(memoKey string, n int) string {
	if memoKey == "" {
		return ""
	}
	h := memoKey
	if i := strings.IndexByte(h, '|'); i >= 0 {
		h = h[:i]
	}
	if len(h) > 12 {
		h = h[:12]
	}
	return h + "/n" + strconv.Itoa(n)
}

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

// newCalibratedSim builds the simulation extractor configured per opts.
func newCalibratedSim(opts *Options, layout *BlockLayout) (*SimExtractor, error) {
	se, err := NewSimExtractor(opts.Locked, layout, opts.Seed)
	if err != nil {
		return nil, err
	}
	se.SetWorkers(opts.Workers)
	return se, nil
}

// chooseExtractor resolves the DIP-set engine when Options.Extractor is
// nil. A pinned SATWidthLimit (> 0) applies the fixed-width rule (SAT up
// to that width, simulation above); otherwise a per-instance calibration
// probe picks the cheaper engine empirically. The decision, both probe
// costs, and the block width land in crossover_* metrics, and the
// probe runs under a "calibrate" child span of root.
func chooseExtractor(ctx context.Context, opts *Options, layout *BlockLayout, root *telemetry.Span) (Extractor, error) {
	tel := opts.Telemetry
	n := layout.N()
	// publish mirrors every decision onto the event bus (one event per
	// attack; the estimator reads sim_est_ns as the expected walk cost).
	publish := func(engine, reason string, simEst, satNs time.Duration) {
		if opts.Events == nil {
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
		opts.Events.Publish(events.Event{Type: events.TypeCrossover, Phase: "calibrate", Fields: f})
	}
	if opts.SATWidthLimit > 0 {
		tel.Counter("crossover_pinned_total").Inc()
		if n <= opts.SATWidthLimit {
			publish("sat", "pinned", 0, 0)
			return newCalibratedSAT(opts, layout)
		}
		publish("sim", "pinned", 0, 0)
		return newCalibratedSim(opts, layout)
	}

	memoKey := probeMemoKey(opts)
	cell := crossoverCell(memoKey, n)
	// setGauge mirrors each probe gauge per lockbench cell alongside the
	// process-wide last-decision value.
	setGauge := func(name string, v int64) {
		tel.Gauge(name).Set(v)
		if cell != "" {
			tel.Gauge(telemetry.Label(name, "cell", cell)).Set(v)
		}
	}
	if memoKey != "" {
		if engine, ok := probeMemo.Get(memoKey); ok {
			var ext Extractor
			var err error
			if engine == "sat" {
				ext, err = newCalibratedSAT(opts, layout)
			} else {
				ext, err = newCalibratedSim(opts, layout)
			}
			if err == nil {
				tel.Counter("crossover_probe_reused_total").Inc()
				setGauge("crossover_block_width", int64(n))
				sp := root.Child("calibrate")
				sp.SetArg("engine", engine)
				sp.SetArg("reason", "probe-reused")
				d := sp.End()
				tel.Histogram(telemetry.Label("attack_phase_seconds", "phase", "calibrate"),
					telemetry.DurationBuckets).Observe(d.Seconds())
				tel.Counter(telemetry.Label("crossover_selected_total", "engine", engine)).Inc()
				publish(engine, "probe-reused", 0, 0)
				return ext, nil
			}
			// The remembered engine cannot be built in this process (e.g.
			// the sim extractor's worker planning rejected the config);
			// fall through and probe fresh.
		}
	}

	tel.Counter("crossover_probes_total").Inc()
	setGauge("crossover_block_width", int64(n))
	sp := root.Child("calibrate")
	defer func() {
		d := sp.End()
		tel.Histogram(telemetry.Label("attack_phase_seconds", "phase", "calibrate"),
			telemetry.DurationBuckets).Observe(d.Seconds())
	}()
	var simEst, satNs time.Duration
	pick := func(engine, reason string, ext Extractor) Extractor {
		sp.SetArg("engine", engine)
		sp.SetArg("reason", reason)
		tel.Counter(telemetry.Label("crossover_selected_total", "engine", engine)).Inc()
		publish(engine, reason, simEst, satNs)
		return ext
	}

	se, simErr := newCalibratedSim(opts, layout)
	if simErr != nil {
		if n > 30 {
			// Neither engine can take the instance (the SAT extractor caps
			// at 30 chain inputs).
			return nil, simErr
		}
		satExt, err := newCalibratedSAT(opts, layout)
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
	setGauge("crossover_sim_probe_ns", int64(simEst))
	sp.SetArg("sim_est_ns", strconv.FormatInt(int64(simEst), 10))
	if simEst <= crossoverSimFloor {
		return pick("sim", "sim-floor", se), nil
	}

	// SAT probe: give the persistent engine a deadline equal to the sim
	// estimate (capped) and let it race the same enumeration. The
	// engine's budgeter slices its Solve calls against that deadline.
	satExt, err := newCalibratedSAT(opts, layout)
	if err != nil {
		return pick("sim", "sat-unavailable", se), nil
	}
	budget := simEst
	if budget > crossoverProbeCap {
		budget = crossoverProbeCap
	}
	probeCtx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	satExt.SetContext(probeCtx)
	satExt.SetTelemetry(tel)
	satExt.SetPhase("calibrate")
	eng, err := satExt.Engine()
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
	setGauge("crossover_sat_probe_ns", int64(satNs))
	sp.SetArg("sat_probe_ns", strconv.FormatInt(int64(satNs), 10))
	sp.SetArg("sat_probe_dips", strconv.FormatUint(dips, 10))
	memo := func(engine string) {
		if memoKey != "" {
			probeMemo.Put(memoKey, engine)
		}
	}
	if enumErr == nil && !overflow {
		// The engine finished the first hypothesis' full enumeration
		// inside the sim estimate; it keeps the learned clauses, so the
		// attack's own extraction replays at assumption-switch cost.
		memo("sat")
		return pick("sat", "probe-won", satExt), nil
	}
	reason := "probe-timeout"
	if overflow {
		reason = "probe-dip-overflow"
	}
	memo("sim")
	return pick("sim", reason, se), nil
}
