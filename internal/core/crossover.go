package core

import (
	"strconv"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// This file implements the SAT/sim regime boundary as a fixed rule over
// what the attack can see before it runs. The attack has two exact
// DIP-set extractors — the paper's SAT enumeration and exhaustive
// bit-parallel simulation. The simulation walk is the default: its cost
// is 2^n pattern evaluations regardless of how many DIPs there are,
// while SAT enumeration pays a solve and a blocking clause per DIP, so
// the walk wins on every DIP-rich instance (all of Table I). SAT runs
// only when the caller pins it with SATWidthLimit, or when the
// simulation extractor refuses the instance (its key-cone self-check
// fails, or the block is wider than a dense DIP set can hold) and the
// block is narrow enough for full SAT enumeration. No clock is read: the
// same instance and options select the same extractor on every run.

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
// above); otherwise the simulation extractor runs, and SAT only when
// simulation refuses the instance. The unpinned choice runs as the
// "calibrate" phase under the attack's root span, covering the
// extractor's construction and self-check; the decision and the block
// width land in crossover_* metrics and one crossover event. Both
// extractors share the attack's environment.
func (a *attack) chooseExtractor() (Extractor, error) {
	opts, layout, tel := &a.opts, a.layout, a.env.Tel
	n := layout.N()
	publish := func(eng, reason string) {
		if a.env.Bus == nil {
			return
		}
		a.env.Bus.Publish(events.Event{Type: events.TypeCrossover, Phase: "calibrate", Fields: map[string]string{
			"engine": eng,
			"reason": reason,
			"width":  strconv.Itoa(n),
		}})
	}
	if opts.SATWidthLimit > 0 {
		tel.Counter("crossover_pinned_total").Inc()
		if n <= opts.SATWidthLimit {
			publish("sat", "pinned")
			return NewSATExtractor(opts.Locked, layout, a.env)
		}
		publish("sim", "pinned")
		return a.newCalibratedSim()
	}

	tel.Gauge("crossover_block_width").Set(int64(n))
	ph := a.enterPhase(a.root, "calibrate")
	defer a.exitPhase(ph)
	ext, err := SelectExtractor(opts.Locked, layout, opts.Seed, a.env, a.sim)
	if err != nil {
		return nil, err
	}
	eng, reason := "sim", "default"
	if se, ok := ext.(*SimExtractor); ok {
		se.SetWorkers(opts.Workers)
	} else {
		eng, reason = "sat", "sim-unavailable"
	}
	ph.sp.SetArg("engine", eng)
	ph.sp.SetArg("reason", reason)
	tel.Counter(telemetry.Label("crossover_selected_total", "engine", eng)).Inc()
	publish(eng, reason)
	return ext, nil
}

// SelectExtractor applies the regime rule of an unpinned run: the
// simulation extractor by default, and the SAT extractor only when
// simulation refuses the instance and the block is narrow enough for
// full SAT enumeration (n ≤ 30). The simulation self-check runs on sim,
// a simulator of locked the caller already compiled; nil compiles one.
// The attack and the bypass attack both choose their extractor through
// it.
func SelectExtractor(locked *netlist.Circuit, layout *BlockLayout, seed int64, env *engine.Env, sim *netlist.Simulator) (Extractor, error) {
	se, err := newSimExtractor(locked, layout, seed, env, sim)
	if err == nil {
		return se, nil
	}
	if layout.N() > 30 {
		// Neither engine can take the instance (the SAT extractor caps
		// at 30 chain inputs).
		return nil, err
	}
	return NewSATExtractor(locked, layout, env)
}
