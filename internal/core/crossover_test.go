package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

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
// calibration probe is visible in the crossover_* telemetry family, and
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
	if got := tel.Counter("crossover_probes_total").Value(); got != 1 {
		t.Errorf("crossover_probes_total = %d, want 1", got)
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

// TestCrossoverProbeWonKeepsAttackContext pins the probe's deadline to
// the probe: a SAT extractor that won the calibration probe runs the
// attack proper under the attack's own context. The Log hook holds the
// attack past the longest probe deadline before enumeration starts, so
// an extraction still bound to the probe's deadline would be
// interrupted in the extract stage. Under the attack's context the
// enumeration completes, and the run stops only at the calibration
// budget this early-OR chain exceeds.
func TestCrossoverProbeWonKeepsAttackContext(t *testing.T) {
	lockedC, _, h := lockedInstance(t, "O-19A", 1)
	tel := telemetry.New()
	slept := false
	_, err := Run(Options{
		Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: 1, Telemetry: tel,
		Context: context.Background(), MaxCalibrations: 4,
		Log: func(string, ...any) {
			if !slept {
				slept = true
				time.Sleep(crossoverProbeCap + 50*time.Millisecond)
			}
		},
	})
	if tel.Counter(telemetry.Label("crossover_selected_total", "engine", "sat")).Value() != 1 {
		t.Skip("the SAT probe lost to simulation on this host; no probe-won run to check")
	}
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Stage != "calibrate" || !errors.Is(err, errCalibrationBudget) {
		t.Fatalf("probe-won attack ended with %v, want the calibration budget after a full enumeration", err)
	}
	if pe.DIPs == 0 {
		t.Fatal("the enumeration after the probe found no DIPs")
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
