package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// widthInstance locks a CAS instance with an n-input chain over a small
// random host (the shape parallelBenchInstance uses, parameterized by
// width) and returns the locked circuit with its discovered layout.
func widthInstance(t *testing.T, n int, seed int64) (*netlist.Circuit, *BlockLayout) {
	t.Helper()
	host, err := synth.Generate(synth.Config{Name: "h", Inputs: n + 4, Outputs: 3, Gates: 60, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	chain := make(lock.ChainConfig, n-1)
	for i := range chain {
		if i%4 == 2 {
			chain[i] = lock.ChainOr
		}
	}
	chain[n-2] = lock.ChainAnd
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DiscoverLayout(locked.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return locked.Circuit, layout
}

// lemma1Assign is the attack's first-hypothesis pair assignment (copy A
// carries key 1 on block 1, copy B all zeros), the workload the
// enumerate phase runs first.
func lemma1Assign(locked *netlist.Circuit, layout *BlockLayout) PairAssign {
	a := PairAssign{A: make([]bool, locked.NumKeys()), B: make([]bool, locked.NumKeys())}
	for _, pos := range layout.Key1Pos {
		a.A[pos] = true
	}
	return a
}

// TestSimExtractorLaneWidthsBitIdentical is the wide-kernel acceptance
// property at the extractor level: every worker count produces the same
// DIP set, across widths that exercise the partial single-batch space
// (n < 6), the scalar-only edge (too few batches for a 512-lane group),
// exactly one 512-lane group, and a long wide walk whose shard tails
// run through the scalar kernel. The SAT extractor must agree on the
// same assignments.
func TestSimExtractorLaneWidthsBitIdentical(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 9, 13} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			lockedC, layout := widthInstance(t, n, int64(100+n))
			assign := lemma1Assign(lockedC, layout)

			var want *DIPSet
			for _, workers := range []int{1, 2, 3} {
				ext, err := NewSimExtractor(lockedC, layout, 7, nil)
				if err != nil {
					t.Fatal(err)
				}
				ext.SetWorkers(workers)
				dips, err := ext.DIPs(assign)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if want == nil {
					want = dips
					continue
				}
				if !dips.Equal(want) {
					t.Fatalf("workers=%d: DIP set differs (%d vs %d DIPs)",
						workers, dips.Count(), want.Count())
				}
			}

			satExt, err := NewSATExtractor(lockedC, layout, nil)
			if err != nil {
				t.Fatal(err)
			}
			satDips, err := satExt.DIPs(assign)
			if err != nil {
				t.Fatal(err)
			}
			if !satDips.Equal(want) {
				t.Fatalf("SAT extractor disagrees with simulation (%d vs %d DIPs)",
					satDips.Count(), want.Count())
			}
		})
	}
}

// TestCrossoverAutoCalibration runs the full attack with SATWidthLimit
// left at 0 and asserts that the recovered key is correct, that the
// extractor choice is visible in the crossover_* telemetry family, and
// that calibrate is a phase like the others: one balanced
// phase_enter/phase_exit pair on the bus, before enumerate enters.
func TestCrossoverAutoCalibration(t *testing.T) {
	lockedC, inst, h := lockedInstance(t, "2A-O-A", 21)
	tel := telemetry.New()
	bus := events.New(events.Options{History: 1 << 16})
	res, err := Run(Options{
		Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: 22, Telemetry: tel, Events: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCorrectCASKey(res.Key) {
		t.Fatal("auto-calibrated attack recovered a wrong key")
	}
	if got := tel.Counter("crossover_pinned_total").Value(); got != 0 {
		t.Errorf("crossover_pinned_total = %d, want 0", got)
	}
	selected := tel.Counter(telemetry.Label("crossover_selected_total", "engine", "sim")).Value() +
		tel.Counter(telemetry.Label("crossover_selected_total", "engine", "sat")).Value()
	if selected != 1 {
		t.Errorf("crossover_selected_total across engines = %d, want 1", selected)
	}
	if got := tel.Gauge("crossover_block_width").Value(); got != 5 {
		t.Errorf("crossover_block_width = %d, want 5", got)
	}
	if got := tel.Histogram(telemetry.Label("attack_phase_seconds", "phase", "calibrate"),
		telemetry.DurationBuckets).Snapshot().Count; got != 1 {
		t.Errorf("calibrate attack_phase_seconds observations = %d, want 1", got)
	}

	var enters, exits int
	for _, ev := range bus.History(0) {
		if ev.Phase == "enumerate" && ev.Type == events.TypePhaseEnter {
			break
		}
		if ev.Phase != "calibrate" {
			continue
		}
		switch ev.Type {
		case events.TypePhaseEnter:
			enters++
		case events.TypePhaseExit:
			if exits++; exits > enters {
				t.Fatal("calibrate phase_exit before its phase_enter")
			}
		}
	}
	if enters != 1 || exits != 1 {
		t.Fatalf("calibrate phase events before enumerate: %d enter / %d exit, want 1/1", enters, exits)
	}
}

// TestCrossoverRuleIsFixed pins the regime rule on O-19A, the OR-first
// instance where a timed race used to pick SAT: unpinned, every call
// selects the simulation extractor with reason "default"; with
// SATWidthLimit = n it selects SAT; and both return the same DIP set on
// the Lemma-1 assignment.
func TestCrossoverRuleIsFixed(t *testing.T) {
	lockedC, _, _ := lockedInstance(t, "O-19A", 1)
	layout, err := DiscoverLayout(lockedC)
	if err != nil {
		t.Fatal(err)
	}
	n := layout.N()
	sim, err := netlist.NewSimulator(lockedC)
	if err != nil {
		t.Fatal(err)
	}
	choose := func(widthLimit int) (Extractor, map[string]string) {
		t.Helper()
		bus := events.New(events.Options{History: 64})
		a := &attack{opts: Options{Locked: lockedC, Seed: 1, SATWidthLimit: widthLimit}, layout: layout, sim: sim,
			env: &engine.Env{Ctx: context.Background(), Bus: bus}}
		ext, err := a.chooseExtractor()
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]string
		for _, ev := range bus.History(0) {
			if ev.Type == events.TypeCrossover {
				if fields != nil {
					t.Fatal("more than one crossover event per choice")
				}
				fields = ev.Fields
			}
		}
		return ext, fields
	}

	var simExt Extractor
	for call := 0; call < 3; call++ {
		ext, f := choose(0)
		if _, ok := ext.(*SimExtractor); !ok {
			t.Fatalf("call %d: unpinned rule chose %T, want *SimExtractor", call, ext)
		}
		if f["engine"] != "sim" || f["reason"] != "default" || f["width"] != fmt.Sprint(n) {
			t.Fatalf("call %d: crossover event %v, want engine sim, reason default, width %d", call, f, n)
		}
		simExt = ext
	}
	satExt, f := choose(n)
	if _, ok := satExt.(*SATExtractor); !ok {
		t.Fatalf("SATWidthLimit = %d chose %T, want *SATExtractor", n, satExt)
	}
	if f["engine"] != "sat" || f["reason"] != "pinned" {
		t.Fatalf("pinned crossover event %v, want engine sat, reason pinned", f)
	}

	assign := lemma1Assign(lockedC, layout)
	simDips, err := simExt.DIPs(assign)
	if err != nil {
		t.Fatal(err)
	}
	satDips, err := satExt.DIPs(assign)
	if err != nil {
		t.Fatal(err)
	}
	if !simDips.Equal(satDips) {
		t.Fatalf("extractors disagree on the Lemma-1 DIP set (sim %d vs SAT %d DIPs)", simDips.Count(), satDips.Count())
	}
}

// TestCrossoverPinned asserts a positive SATWidthLimit bypasses the
// probe and applies the fixed width rule.
func TestCrossoverPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(o *Options)
	}{
		{"width-limit", func(o *Options) { o.SATWidthLimit = 12 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lockedC, inst, h := lockedInstance(t, "2A-O-A", 31)
			tel := telemetry.New()
			bus := events.New(events.Options{History: 1 << 16})
			opts := Options{Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: 32, Telemetry: tel, Events: bus}
			tc.opts(&opts)
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !inst.IsCorrectCASKey(res.Key) {
				t.Fatal("pinned attack recovered a wrong key")
			}
			if got := tel.Counter("crossover_pinned_total").Value(); got != 1 {
				t.Errorf("crossover_pinned_total = %d, want 1", got)
			}
			if got := tel.Counter("crossover_probes_total").Value(); got != 0 {
				t.Errorf("crossover_probes_total = %d, want 0", got)
			}
			for _, ev := range bus.History(0) {
				if ev.Phase == "calibrate" && (ev.Type == events.TypePhaseEnter || ev.Type == events.TypePhaseExit) {
					t.Fatalf("pinned run published a calibrate %s event", ev.Type)
				}
			}
			for _, rec := range tel.SpanRecords() {
				if rec.Name == "calibrate" {
					t.Fatal("pinned run opened a calibrate span")
				}
			}
		})
	}
}
