package core

import (
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// runInstrumented mounts the attack on a small instance with a live
// registry and returns both.
func runInstrumented(t *testing.T, chain string, seed int64) (*Result, *telemetry.Registry) {
	t.Helper()
	h := host(t, 8)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{
		Chain:    lock.MustParseChain(chain),
		InputSel: []int{0, 2, 4, 5, 7},
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	res, err := Run(Options{
		Locked:    locked.Circuit,
		Oracle:    oracle.MustNewSim(h),
		Seed:      seed,
		Telemetry: reg,
		// Pin the fixed regime rule: these tests assert SAT-extractor
		// telemetry on a width-5 block, which the unpinned rule routes
		// to the simulation engine.
		SATWidthLimit: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, reg
}

// TestAttackSpanTree asserts the instrumented pipeline shape: one
// "attack" root, "hypothesis" children carrying the case argument, and
// under the successful hypothesis the five phases enumerate → decode →
// algo1 → algo2 → verify, in start order.
func TestAttackSpanTree(t *testing.T) {
	res, reg := runInstrumented(t, "A-O-2A", 42)
	recs := reg.SpanRecords()
	roots := telemetry.FindSpans(recs, "attack")
	if len(roots) != 1 || roots[0].Parent != 0 {
		t.Fatalf("want exactly one parentless attack span, got %+v", roots)
	}
	hyps := telemetry.ChildrenOf(recs, roots[0].ID)
	if len(hyps) == 0 {
		t.Fatal("attack span has no hypothesis children")
	}
	// The last hypothesis is the successful one.
	last := hyps[len(hyps)-1]
	if last.Name != "hypothesis" {
		t.Fatalf("attack child %q, want hypothesis", last.Name)
	}
	if last.Args["case"] != strconv.Itoa(res.Case) {
		t.Fatalf("hypothesis case arg %q, result case %d", last.Args["case"], res.Case)
	}
	var phases []string
	for _, kid := range telemetry.ChildrenOf(recs, last.ID) {
		phases = append(phases, kid.Name)
	}
	want := []string{"enumerate", "decode", "algo1", "algo2", "verify"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i, name := range want {
		if phases[i] != name {
			t.Fatalf("phase %d = %q, want %q (%v)", i, phases[i], name, phases)
		}
	}
	// Phase durations nest inside the hypothesis, which nests inside the
	// attack.
	var phaseSum int64
	for _, kid := range telemetry.ChildrenOf(recs, last.ID) {
		phaseSum += int64(kid.Dur)
	}
	if phaseSum > int64(last.Dur) {
		t.Fatalf("phase durations %d exceed hypothesis duration %d", phaseSum, last.Dur)
	}
	if int64(last.Dur) > int64(roots[0].Dur) {
		t.Fatal("hypothesis outlasts the attack root span")
	}
}

// TestAttackTelemetryCounters asserts the registry agrees with the
// attack's own accounting and that the extractor folded in its metrics.
func TestAttackTelemetryCounters(t *testing.T) {
	res, reg := runInstrumented(t, "2A-O-A", 7)
	snap := reg.Snapshot()
	if got := snap.Counters["attack_oracle_queries_total"]; got != res.OracleQueries {
		t.Fatalf("attack_oracle_queries_total = %d, result says %d", got, res.OracleQueries)
	}
	if got := snap.Counters["attack_candidates_total"]; got != uint64(res.CandidatesTried) {
		t.Fatalf("attack_candidates_total = %d, result says %d", got, res.CandidatesTried)
	}
	if got := snap.Counters["enum_extractions_total"]; got != uint64(res.Extractions) {
		t.Fatalf("enum_extractions_total = %d, result says %d", got, res.Extractions)
	}
	// n = 5 uses the SAT extractor, whose solver stats fold into sat_*.
	if snap.Counters["sat_solve_calls_total"] == 0 {
		t.Fatal("sat_solve_calls_total not recorded")
	}
	for _, phase := range []string{"enumerate", "decode", "algo1", "algo2", "verify"} {
		name := telemetry.Label("attack_phase_seconds", "phase", phase)
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Fatalf("phase histogram %s missing or empty", name)
		}
	}
	extracts := telemetry.FindSpans(snap.Spans, "extract")
	if len(extracts) == 0 {
		t.Fatal("no extract spans recorded")
	}
	// A telemetry-only run (no bus, no checkpointer) still feeds the
	// DIP gauge: it holds the count of the last enumerated set.
	last := extracts[len(extracts)-1].Args["dips"]
	if got := strconv.FormatInt(snap.Gauges["attack_dips_found"], 10); got != last {
		t.Fatalf("attack_dips_found = %s, last extraction enumerated %s DIPs", got, last)
	}
}

// TestPhaseReportsAgree holds the three reports of each phase to one
// measurement: every phase_exit event's seconds field is its phase
// span's duration, and each attack_phase_seconds histogram sums exactly
// that phase's span durations.
func TestPhaseReportsAgree(t *testing.T) {
	lockedC, _, h := lockedInstance(t, "2A-O-A", 21)
	reg := telemetry.New()
	bus := events.New(events.Options{History: 1 << 16})
	if _, err := Run(Options{Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: 22,
		Telemetry: reg, Events: bus}); err != nil {
		t.Fatal(err)
	}
	spans := reg.SpanRecords()
	exits := make(map[string][]string)
	for _, ev := range bus.History(0) {
		if ev.Type == events.TypePhaseExit {
			exits[ev.Phase] = append(exits[ev.Phase], ev.Fields["seconds"])
		}
	}
	if len(exits) < 5 {
		t.Fatalf("phase_exit events for %d phases, want at least 5: %v", len(exits), exits)
	}
	snap := reg.Snapshot()
	for name, secs := range exits {
		// Spans of one phase never overlap, so start order is exit order.
		recs := telemetry.FindSpans(spans, name)
		if len(recs) != len(secs) {
			t.Fatalf("phase %s: %d phase_exit events, %d spans", name, len(secs), len(recs))
		}
		var sum float64
		for i, rec := range recs {
			if want := strconv.FormatFloat(rec.Dur.Seconds(), 'g', 4, 64); secs[i] != want {
				t.Errorf("phase %s #%d: phase_exit seconds %s, span %s", name, i, secs[i], want)
			}
			sum += rec.Dur.Seconds()
		}
		hist := snap.Histograms[telemetry.Label("attack_phase_seconds", "phase", name)]
		if hist.Count != uint64(len(recs)) || hist.Sum != sum {
			t.Errorf("phase %s: histogram count %d sum %g, spans %d summing to %g",
				name, hist.Count, hist.Sum, len(recs), sum)
		}
	}
}

// TestSimExtractorShardTelemetry drives the simulation extractor with a
// registry attached and checks the per-shard accounting: every shard's
// batch counter sums to the full batch count, and the shard spans sit on
// lanes 1..w under the extract span.
func TestSimExtractorShardTelemetry(t *testing.T) {
	h := host(t, 10)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{
		Chain:    lock.MustParseChain("3A-O-5A"),
		InputSel: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DiscoverLayout(locked.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	e, err := NewSimExtractor(locked.Circuit, layout, 1, &engine.Env{Tel: reg})
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(4)
	dips, err := e.DIPs(PairAssign{
		A: onesThenC(locked.Circuit.NumKeys(), layout),
		B: make([]bool, locked.Circuit.NumKeys()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dips.Count() == 0 {
		t.Fatal("no DIPs extracted")
	}
	snap := reg.Snapshot()
	w := int(snap.Gauges["enum_workers"])
	if w < 1 {
		t.Fatalf("enum_workers = %d", w)
	}
	var batches uint64
	for s := 0; s < w; s++ {
		batches += snap.Counters[telemetry.Label("enum_shard_batches_total", "shard", strconv.Itoa(s))]
	}
	// n = 10 → 2^(10-6) = 16 batches over the whole space.
	if batches != 16 {
		t.Fatalf("shard batch counters sum to %d, want 16", batches)
	}
	ext := telemetry.FindSpans(snap.Spans, "extract")
	if len(ext) != 1 {
		t.Fatalf("%d extract spans, want 1", len(ext))
	}
	shardSpans := telemetry.ChildrenOf(snap.Spans, ext[0].ID)
	if len(shardSpans) == 0 {
		t.Fatal("no shard spans under extract")
	}
	for _, s := range shardSpans {
		if s.Name != "shard" || s.Lane < 1 {
			t.Fatalf("shard span wrong: %+v", s)
		}
	}
}

// onesThenC builds the Lemma-1 assignment for block 1 active at c = 0.
func onesThenC(nKeys int, layout *BlockLayout) []bool {
	a := make([]bool, nKeys)
	for _, pos := range layout.Key1Pos {
		a[pos] = true
	}
	return a
}
