// Command benchjson runs the repository's tier-1 performance workloads
// in-process (via testing.Benchmark, no go-toolchain exec) and writes
// the results as JSON, so successive PRs accumulate a perf trajectory.
//
//	benchjson              # writes BENCH_core.json in the cwd
//	benchjson -o bench.json
//
// When a baseline report is available (the previous committed
// BENCH_core.json — by default the output path's existing content, or
// an explicit -baseline), the new report carries a "delta" section
// comparing every shared workload and the aggregate SAT and simulation
// times. With -max-regress set, a SAT- or sim-time regression beyond
// that fraction exits nonzero — `make bench-compare` uses this to fail
// loudly on >20% regressions in either engine.
//
//	benchjson -baseline BENCH_core.json -max-regress 0.20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"math"
	"math/rand"

	"repro/internal/attack/satattack"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// Result is one benchmark's record in the JSON output.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Extra       float64 `json:"extra,omitempty"` // workload-specific metric (e.g. DIPs)
	ExtraName   string  `json:"extra_name,omitempty"`
}

// Report is the BENCH_core.json schema.
type Report struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// SpeedupParallel is sim-extraction ns/op at workers=1 divided by
	// ns/op at workers=NumCPU (1.0 on a single-core machine).
	SpeedupParallel float64  `json:"speedup_parallel"`
	Results         []Result `json:"results"`
	// Telemetry condenses the instrumented workloads' registry (the SAT
	// extraction and Table-I attack runs) so the perf trajectory records
	// where the time went, not just how much there was.
	Telemetry *TelemetrySummary `json:"telemetry,omitempty"`
	// Delta compares this report against the previous committed one.
	Delta *DeltaReport `json:"delta,omitempty"`
}

// DeltaEntry is one workload's change versus the baseline report.
type DeltaEntry struct {
	Name     string `json:"name"`
	NsBefore int64  `json:"ns_before"`
	NsAfter  int64  `json:"ns_after"`
	// Change is (after-before)/before: negative is an improvement.
	Change float64 `json:"change"`
}

// DeltaReport is the "delta" section: per-workload ns/op changes for
// every workload present in both reports, plus the aggregate SAT solve
// time (the sum of ns/op over sat_* workloads) and the aggregate
// simulation time (sim_* workloads), both of which bench-compare gates
// on.
type DeltaReport struct {
	BaselineTimestamp string       `json:"baseline_timestamp"`
	SATNsBefore       int64        `json:"sat_ns_before"`
	SATNsAfter        int64        `json:"sat_ns_after"`
	SATTimeChange     float64      `json:"sat_time_change"`
	SimNsBefore       int64        `json:"sim_ns_before"`
	SimNsAfter        int64        `json:"sim_ns_after"`
	SimTimeChange     float64      `json:"sim_time_change"`
	Results           []DeltaEntry `json:"results,omitempty"`
}

// computeDelta builds the delta section from a baseline report. Only
// workloads present in both reports are compared — both per-entry and
// in the SAT aggregate — so a renamed or newly added workload never
// fabricates a regression.
func computeDelta(base, rep *Report) *DeltaReport {
	prev := make(map[string]int64, len(base.Results))
	for _, r := range base.Results {
		prev[r.Name] = r.NsPerOp
	}
	d := &DeltaReport{BaselineTimestamp: base.Timestamp}
	for _, r := range rep.Results {
		before, ok := prev[r.Name]
		if !ok || before == 0 {
			continue
		}
		d.Results = append(d.Results, DeltaEntry{
			Name:     r.Name,
			NsBefore: before,
			NsAfter:  r.NsPerOp,
			Change:   float64(r.NsPerOp-before) / float64(before),
		})
		if strings.HasPrefix(r.Name, "sat_") {
			d.SATNsBefore += before
			d.SATNsAfter += r.NsPerOp
		}
		if strings.HasPrefix(r.Name, "sim_") {
			d.SimNsBefore += before
			d.SimNsAfter += r.NsPerOp
		}
	}
	if d.SATNsBefore > 0 {
		d.SATTimeChange = float64(d.SATNsAfter-d.SATNsBefore) / float64(d.SATNsBefore)
	}
	if d.SimNsBefore > 0 {
		d.SimTimeChange = float64(d.SimNsAfter-d.SimNsBefore) / float64(d.SimNsBefore)
	}
	return d
}

// loadBaseline reads a previous report; a missing file is not an error
// (first run of the trajectory), anything else is.
func loadBaseline(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("baseline %s: %v", path, err)
	}
	return &rep, nil
}

// TelemetrySummary is the slice of the telemetry registry a perf
// trajectory cares about: cumulative per-phase attack seconds and the
// oracle/SAT work totals behind them.
type TelemetrySummary struct {
	PhaseSeconds  map[string]float64 `json:"phase_seconds,omitempty"`
	OracleQueries uint64             `json:"oracle_queries"`
	SATConflicts  uint64             `json:"sat_conflicts"`
	SATSolveCalls uint64             `json:"sat_solve_calls"`
	Extractions   uint64             `json:"extractions"`
	// Crossover records the crossover_* family verbatim (probe counts,
	// which engine the self-tuning boundary picked, probe costs in ns),
	// so the trajectory shows calibration drift alongside raw timings.
	Crossover map[string]int64 `json:"crossover,omitempty"`
}

// summarize extracts the summary fields from a registry snapshot. Phase
// names come from the attack_phase_seconds{phase="..."} histogram family.
func summarize(tel *telemetry.Registry) *TelemetrySummary {
	snap := tel.Snapshot()
	ts := &TelemetrySummary{
		OracleQueries: snap.Counters["attack_oracle_queries_total"],
		SATConflicts:  snap.Counters["sat_conflicts_total"],
		SATSolveCalls: snap.Counters["sat_solve_calls_total"],
		Extractions:   snap.Counters["enum_extractions_total"],
	}
	const prefix = `attack_phase_seconds{phase="`
	for name, h := range snap.Histograms {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		phase := strings.TrimSuffix(strings.TrimPrefix(name, prefix), `"}`)
		if ts.PhaseSeconds == nil {
			ts.PhaseSeconds = make(map[string]float64)
		}
		ts.PhaseSeconds[phase] = h.Sum
	}
	cross := func(name string, v int64) {
		if !strings.HasPrefix(name, "crossover_") {
			return
		}
		if ts.Crossover == nil {
			ts.Crossover = make(map[string]int64)
		}
		ts.Crossover[name] = v
	}
	for name, v := range snap.Counters {
		cross(name, int64(v))
	}
	for name, v := range snap.Gauges {
		cross(name, v)
	}
	return ts
}

func main() {
	out := flag.String("o", "BENCH_core.json", "output path")
	baseline := flag.String("baseline", "", "previous report to diff against (default: the output path's existing content)")
	maxRegress := flag.Float64("max-regress", 0, "fail (exit 1) when aggregate sat_* time regresses by more than this fraction (0 = report-only)")
	flag.Parse()

	basePath := *baseline
	if basePath == "" {
		basePath = *out
	}
	// Load the baseline before the workloads run (and long before the
	// atomic overwrite of the output path clobbers it).
	base, err := loadBaseline(basePath)
	fatalIf(err)

	rep := &Report{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// One registry spans the instrumented workloads (SAT extraction and
	// the Table-I attack); the pure sim-extraction speedup measurements
	// stay uninstrumented so their ns/op series remains comparable
	// across PRs.
	tel := telemetry.New()

	// The overhead pairs run first, on a fresh heap: the armed variants
	// allocate more per op (bank entries, snapshot builds, published
	// events), and a heap inflated by the earlier workloads amplifies
	// that into GC time the <5% gates would misattribute to the armed
	// feature.
	ckRes, ckChange, err := checkpointWorkloads()
	fatalIf(err)
	rep.Results = append(rep.Results, ckRes...)

	evRes, evChange, err := eventsWorkloads()
	fatalIf(err)
	rep.Results = append(rep.Results, evRes...)

	ext, assign, err := extractionWorkload(22)
	var r testing.BenchmarkResult
	fatalIf(err)
	workerCounts := []int{1, 2}
	if nc := runtime.NumCPU(); nc != 1 && nc != 2 {
		workerCounts = append(workerCounts, nc)
	}
	var ns1, nsMax int64
	var wantDIPs uint64
	for _, w := range workerCounts {
		w := w
		ext.SetWorkers(w)
		var dips *core.DIPSet
		r := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				dips, err = ext.DIPs(assign)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		if wantDIPs == 0 {
			wantDIPs = dips.Count()
		} else if dips.Count() != wantDIPs {
			fatalIf(fmt.Errorf("workers=%d produced %d DIPs, want %d", w, dips.Count(), wantDIPs))
		}
		res := toResult(fmt.Sprintf("sim_extract_n22_workers_%d", w), r)
		res.Extra, res.ExtraName = float64(dips.Count()), "DIPs"
		rep.Results = append(rep.Results, res)
		if w == 1 {
			ns1 = res.NsPerOp
		}
		nsMax = res.NsPerOp
	}
	if nsMax > 0 {
		rep.SpeedupParallel = float64(ns1) / float64(nsMax)
	}

	// Lane-width pair: the same single-worker extraction pinned to the
	// 64-lane scalar kernel and to the 512-lane wide kernel, so the
	// trajectory records the bit-slicing win in isolation from sharding.
	// The wide entry's extra metric is its speedup over the 64-lane run.
	ext.SetWorkers(1)
	var nsLanes64 int64
	for _, lw := range []struct {
		lanes int
		name  string
	}{{64, "sim_extract_lanes64"}, {512, "sim_extract_wide"}} {
		fatalIf(ext.SetLaneWidth(lw.lanes))
		var dips *core.DIPSet
		r := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				dips, err = ext.DIPs(assign)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		if dips.Count() != wantDIPs {
			fatalIf(fmt.Errorf("%s produced %d DIPs, want %d", lw.name, dips.Count(), wantDIPs))
		}
		res := toResult(lw.name, r)
		if lw.lanes == 64 {
			nsLanes64 = res.NsPerOp
		} else if res.NsPerOp > 0 {
			res.Extra, res.ExtraName = float64(nsLanes64)/float64(res.NsPerOp), "speedup_vs_64"
		}
		rep.Results = append(rep.Results, res)
	}
	fatalIf(ext.SetLaneWidth(0))

	// Raw compiled-kernel micro entries on a c7552-profile netlist: one
	// Run at each lane width, no extraction logic around it.
	simRes, err := simRunWorkloads()
	fatalIf(err)
	rep.Results = append(rep.Results, simRes...)

	ext.SetWorkers(0)
	r = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ext.Classes(assign); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.Results = append(rep.Results, toResult("sim_classes_n22", r))

	satRes, err := satWorkload(tel)
	fatalIf(err)
	rep.Results = append(rep.Results, satRes)

	// The classic oracle-guided SAT attack on the engine path, capped on
	// the same resistant instance, so the trajectory prices the attack
	// loop itself (encode + enumerate/constrain cycles), not just raw
	// extraction.
	atkRes, err := satAttackWorkload()
	fatalIf(err)
	rep.Results = append(rep.Results, atkRes)

	row := experiments.TableI32[1] // c880, no duplicate-config note
	var last *experiments.TableIResult
	r = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.RunTableIRow(row, experiments.TableIOptions{Seed: 1, MatchPaperRegime: true, Telemetry: tel})
			if err != nil {
				b.Fatal(err)
			}
			if !res.KeyRecovered {
				b.Fatal("key not recovered")
			}
			last = res
		}
	})
	tr := toResult("tablei_k32_"+row.Benchmark, r)
	tr.Extra, tr.ExtraName = float64(last.MeasuredDIPs), "DIPs"
	rep.Results = append(rep.Results, tr)

	rep.Telemetry = summarize(tel)
	if base != nil {
		rep.Delta = computeDelta(base, rep)
	}

	fatalIf(writeReport(*out, rep))
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s (NumCPU=%d, speedup=%.2fx)\n",
		len(rep.Results), *out, rep.NumCPU, rep.SpeedupParallel)
	// The checkpoint and event-bus gates compare within this report
	// (armed vs unarmed twin of the same attack), not against the
	// committed baseline — computeDelta's sat_*/sim_* aggregates never
	// see checkpoint_* or events_*.
	fmt.Fprintf(os.Stderr, "benchjson: checkpoint overhead %s (armed vs unarmed attack)\n", pct(ckChange))
	if *maxRegress > 0 && ckChange > maxCheckpointOverhead {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: armed checkpointing costs %s over the unarmed attack (limit %s)\n",
			pct(ckChange), pct(maxCheckpointOverhead))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: event-bus overhead %s (subscribed vs disabled attack)\n", pct(evChange))
	if *maxRegress > 0 && evChange > maxEventOverhead {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: a subscribed event bus costs %s over the bus-disabled attack (limit %s)\n",
			pct(evChange), pct(maxEventOverhead))
		os.Exit(1)
	}
	if rep.Delta != nil {
		fmt.Fprintf(os.Stderr, "benchjson: delta vs %s (%s): SAT time %s, sim time %s\n",
			basePath, rep.Delta.BaselineTimestamp, pct(rep.Delta.SATTimeChange), pct(rep.Delta.SimTimeChange))
		for _, d := range rep.Delta.Results {
			fmt.Fprintf(os.Stderr, "benchjson:   %-28s %12d -> %12d ns/op (%s)\n",
				d.Name, d.NsBefore, d.NsAfter, pct(d.Change))
		}
		failed := false
		if *maxRegress > 0 && rep.Delta.SATTimeChange > *maxRegress {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: SAT time regressed %s against %s (limit %s)\n",
				pct(rep.Delta.SATTimeChange), basePath, pct(*maxRegress))
			failed = true
		}
		if *maxRegress > 0 && rep.Delta.SimTimeChange > *maxRegress {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: sim time regressed %s against %s (limit %s)\n",
				pct(rep.Delta.SimTimeChange), basePath, pct(*maxRegress))
			failed = true
		}
		if failed {
			os.Exit(1)
		}
	} else if *maxRegress > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no baseline at %s; regression gate skipped\n", basePath)
	}
}

// pct renders a fraction as a signed percentage.
func pct(f float64) string {
	return fmt.Sprintf("%+.1f%%", f*100)
}

// writeReport marshals and writes the report atomically (temp file in
// the destination directory, fsync, then rename, then a best-effort
// directory fsync), so neither an interrupted run nor a post-rename
// power cut leaves a truncated BENCH file for the trajectory tooling
// to choke on.
func writeReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".bench-*.json")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}

// bench runs fn under the standard testing.Benchmark calibration (1s
// per benchmark), with allocation reporting on.
func bench(fn func(b *testing.B)) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
}

func toResult(name string, r testing.BenchmarkResult) Result {
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// extractionWorkload mirrors BenchmarkSimExtractorParallel: a 2^n-block
// CAS instance under the Lemma-1 assignment.
func extractionWorkload(n int) (*core.SimExtractor, core.PairAssign, error) {
	host, err := synth.Generate(synth.Config{Name: "h", Inputs: n + 4, Outputs: 4, Gates: 100, Seed: 1})
	if err != nil {
		return nil, core.PairAssign{}, err
	}
	chain := make(lock.ChainConfig, n-1)
	for i := range chain {
		if i%4 == 2 {
			chain[i] = lock.ChainOr
		}
	}
	chain[n-2] = lock.ChainAnd
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: 2})
	if err != nil {
		return nil, core.PairAssign{}, err
	}
	layout, err := core.DiscoverLayout(locked.Circuit)
	if err != nil {
		return nil, core.PairAssign{}, err
	}
	ext, err := core.NewSimExtractor(locked.Circuit, layout, 3, nil)
	if err != nil {
		return nil, core.PairAssign{}, err
	}
	assign := core.PairAssign{A: make([]bool, locked.Circuit.NumKeys()), B: make([]bool, locked.Circuit.NumKeys())}
	for _, pos := range layout.Key1Pos {
		assign.A[pos] = true
	}
	return ext, assign, nil
}

// simRunWorkloads benchmarks the compiled gate program on a
// c7552-profile synthetic netlist at all three lane widths (one Run64 /
// Run256 / Run512 call per op), the purest view of the bit-sliced
// kernel's throughput.
func simRunWorkloads() ([]Result, error) {
	prof, err := synth.ProfileByName("c7552")
	if err != nil {
		return nil, err
	}
	c, err := synth.Generate(synth.FromProfile(prof, 9))
	if err != nil {
		return nil, err
	}
	sim, err := netlist.NewSimulator(c)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(10))
	nIn := c.NumInputs()
	in1 := make([]uint64, nIn)
	in4 := make([][4]uint64, nIn)
	in8 := make([][8]uint64, nIn)
	for i := 0; i < nIn; i++ {
		for j := 0; j < 8; j++ {
			in8[i][j] = rng.Uint64()
		}
		copy(in4[i][:], in8[i][:4])
		in1[i] = in8[i][0]
	}
	var out []Result
	for _, w := range []struct {
		name string
		fn   func() error
	}{
		{"sim_run_c7552_w64", func() error { _, err := sim.Run64(in1, nil); return err }},
		{"sim_run_c7552_w256", func() error { _, err := sim.Run256(in4, nil); return err }},
		{"sim_run_c7552_w512", func() error { _, err := sim.Run512(in8, nil); return err }},
	} {
		w := w
		r := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := w.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, toResult(w.name, r))
	}
	return out, nil
}

// satInstance builds the n=8 CAS instance every sat_* workload shares:
// an 11-input host behind an 8-block mixed AND/OR chain.
func satInstance() (*netlist.Circuit, *lock.Locked, error) {
	host, err := synth.Generate(synth.Config{Name: "bh", Inputs: 11, Outputs: 4, Gates: 80, Seed: 7})
	if err != nil {
		return nil, nil, err
	}
	chain := make(lock.ChainConfig, 7)
	for i := range chain {
		if i%3 == 1 {
			chain[i] = lock.ChainOr
		}
	}
	chain[6] = lock.ChainAnd
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: 11})
	if err != nil {
		return nil, nil, err
	}
	return host, locked, nil
}

// satWorkload mirrors BenchmarkDIPExtraction/sat_n8, instrumented so
// the report's telemetry summary carries the SAT solver's work totals.
func satWorkload(tel *telemetry.Registry) (Result, error) {
	_, locked, err := satInstance()
	if err != nil {
		return Result{}, err
	}
	layout, err := core.DiscoverLayout(locked.Circuit)
	if err != nil {
		return Result{}, err
	}
	ext, err := core.NewSATExtractor(locked.Circuit, layout, &engine.Env{Tel: tel})
	if err != nil {
		return Result{}, err
	}
	assign := core.PairAssign{A: make([]bool, locked.Circuit.NumKeys()), B: make([]bool, locked.Circuit.NumKeys())}
	for _, pos := range layout.Key1Pos {
		assign.A[pos] = true
	}
	r := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dips, err := ext.DIPs(assign)
			if err != nil {
				b.Fatal(err)
			}
			if dips.Count() == 0 {
				b.Fatal("no DIPs")
			}
		}
	})
	return toResult("sat_extract_n8", r), nil
}

// satAttackCap bounds the classic SAT attack's DIP loop on the
// SAT-resistant CAS instance so each op measures a fixed amount of
// work: one miter encode plus 24 enumerate/constrain cycles on the
// persistent engine.
const satAttackCap = 24

// satAttackWorkload benchmarks the oracle-guided SAT attack (the
// registry's "sat" entry) on the engine path against the same n=8 CAS
// instance the extraction workloads share. CAS-Lock resists the attack,
// so the run is capped and must NOT complete — a completion means the
// instance no longer measures the resistant regime. The sat_ prefix
// joins the entry to the gated aggregate that bench-compare holds to
// MAXREGRESS. Uninstrumented: its solver work would skew the telemetry
// summary away from the DIP-learning attack shape it describes.
func satAttackWorkload() (Result, error) {
	host, locked, err := satInstance()
	if err != nil {
		return Result{}, err
	}
	orc := oracle.MustNewSim(host)
	var last *satattack.Result
	r := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := satattack.Run(locked.Circuit, orc, satattack.Options{MaxIterations: satAttackCap})
			if err != nil {
				b.Fatal(err)
			}
			if res.Completed {
				b.Fatal("capped SAT attack completed on the resistant CAS instance")
			}
			last = res
		}
	})
	res := toResult("sat_attack_n8_engine", r)
	res.Extra, res.ExtraName = float64(last.Iterations), "iterations"
	return res, nil
}

// maxCheckpointOverhead caps what an armed checkpoint writer may add to
// a full attack's wall time: the hot-loop contract is two atomics per
// progress event, so anything past 5% is a broken cadence path.
const maxCheckpointOverhead = 0.05

// checkpointWorkloads runs the same width-12 end-to-end attack without
// and with a checkpoint writer armed, reporting both
// (checkpoint_baseline_n12 / checkpoint_overhead_n12) plus the
// armed-over-unarmed fraction. The gate is about the HOT-PATH cost of
// arming — Tick per progress event, the banked oracle on every query,
// milestone snapshot builds on the attack goroutine — so the workload
// keeps the disk off the measured path the same way production does:
// one writer shared across iterations (snapshot writes drain
// asynchronously; Close and its final flush sit outside the timing),
// a cadence pinned above the per-run event count so only milestone
// snapshots fire, and the snapshot file on /dev/shm when available.
// Disk durability itself is the crash-smoke harness's job; measured
// here it would only gate this machine's fsync latency. Measurement
// is pairedRatio's adjacent-block scheme.
func checkpointWorkloads() ([]Result, float64, error) {
	host, err := synth.Generate(synth.Config{Name: "ch", Inputs: 16, Outputs: 4, Gates: 220, Seed: 5})
	if err != nil {
		return nil, 0, err
	}
	const n = 12
	chain := make(lock.ChainConfig, n-1)
	for i := range chain {
		if i%3 == 1 {
			chain[i] = lock.ChainOr
		}
	}
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: 6})
	if err != nil {
		return nil, 0, err
	}
	base := "/dev/shm"
	if fi, err := os.Stat(base); err != nil || !fi.IsDir() {
		base = "" // default temp dir
	}
	dir, err := os.MkdirTemp(base, "ckpt-bench-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	w, err := checkpoint.NewWriter(checkpoint.WriterConfig{
		Path:        filepath.Join(dir, "snap.ckpt"),
		EveryEvents: 1 << 20, // cadence never due within one n12 run
	})
	if err != nil {
		return nil, 0, err
	}
	defer w.Close()
	attack := func(arm bool) error {
		opts := core.Options{
			Locked: locked.Circuit, Oracle: oracle.MustNewSim(host),
			Seed: 3, Telemetry: telemetry.New(),
		}
		if arm {
			opts.Checkpointer = w
		}
		_, err := core.Run(opts)
		return err
	}
	bestU, bestA, overhead, err := pairedRatio(attack)
	if err != nil {
		return nil, 0, err
	}
	return []Result{
		bestU.result("checkpoint_baseline_n12"),
		bestA.result("checkpoint_overhead_n12"),
	}, overhead, nil
}

// maxEventOverhead caps what an attached, actively draining event
// subscriber may add to a full attack's wall time: publishers batch
// per dipEventBatch/oracleEventBatch and Publish never blocks, so
// anything past 5% means an event found its way onto a per-unit path.
const maxEventOverhead = 0.05

// eventsWorkloads runs the same width-12 end-to-end attack without an
// event bus and with a bus plus one continuously draining subscriber,
// reporting both (events_baseline_n12 / events_overhead_n12) and the
// subscribed-over-disabled fraction that the <5% gate reads. The
// subscriber drains on its own goroutine exactly like the SSE handler
// does, so the measured cost covers publish, ring append, and wakeup —
// the full production path minus the network write.
func eventsWorkloads() ([]Result, float64, error) {
	host, err := synth.Generate(synth.Config{Name: "eh", Inputs: 16, Outputs: 4, Gates: 220, Seed: 5})
	if err != nil {
		return nil, 0, err
	}
	const n = 12
	chain := make(lock.ChainConfig, n-1)
	for i := range chain {
		if i%3 == 1 {
			chain[i] = lock.ChainOr
		}
	}
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: 6})
	if err != nil {
		return nil, 0, err
	}
	attack := func(arm bool) error {
		opts := core.Options{
			Locked: locked.Circuit, Oracle: oracle.MustNewSim(host),
			Seed: 3, Telemetry: telemetry.New(),
		}
		var bus *events.Bus
		var drained chan struct{}
		if arm {
			bus = events.New(events.Options{})
			sub := bus.Subscribe(0)
			drained = make(chan struct{})
			go func() {
				defer close(drained)
				for {
					if len(sub.Poll()) > 0 {
						continue
					}
					if sub.Closed() {
						return
					}
					<-sub.Wait()
				}
			}()
			opts.Events = bus
		}
		_, err := core.Run(opts)
		if bus != nil {
			bus.Close()
			<-drained
		}
		return err
	}
	bestU, bestA, overhead, err := pairedRatio(attack)
	if err != nil {
		return nil, 0, err
	}
	return []Result{
		bestU.result("events_baseline_n12"),
		bestA.result("events_overhead_n12"),
	}, overhead, nil
}

// pairedRatio measures run(false) and run(true) in paired adjacent
// fixed-budget blocks (plain then armed, repeated) and returns the
// best-ratio pair's samples plus the armed-over-plain fraction.
// Adjacent blocks share the machine's contention state, so the ratio
// survives load drift that would swamp independently-measured
// minimums on a busy host. Both paths are warmed once first (kernel
// compilation, page faults, first snapshot).
func pairedRatio(run func(arm bool) error) (pairedSample, pairedSample, float64, error) {
	if err := run(false); err != nil {
		return pairedSample{}, pairedSample{}, 0, err
	}
	if err := run(true); err != nil {
		return pairedSample{}, pairedSample{}, 0, err
	}
	var runErr error
	block := func(arm bool) pairedSample {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		iters := 0
		for time.Since(start) < 600*time.Millisecond {
			if err := run(arm); err != nil {
				runErr = err
				return pairedSample{}
			}
			iters++
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return pairedSample{
			nsPerOp:     int64(elapsed) / int64(iters),
			allocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
			bytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
			iters:       iters,
		}
	}
	bestRatio := math.Inf(1)
	var bestU, bestA pairedSample
	for i := 0; i < 4 && runErr == nil; i++ {
		u := block(false)
		a := block(true)
		if runErr != nil {
			break
		}
		if r := float64(a.nsPerOp) / float64(u.nsPerOp); r < bestRatio {
			bestRatio, bestU, bestA = r, u, a
		}
	}
	if runErr != nil {
		return pairedSample{}, pairedSample{}, 0, runErr
	}
	return bestU, bestA, bestRatio - 1, nil
}

// pairedSample is one fixed-budget measurement block of an overhead
// workload pair (manual timing: testing.Benchmark's 1s calibration is
// too coarse for a paired-ratio gate).
type pairedSample struct {
	nsPerOp     int64
	allocsPerOp int64
	bytesPerOp  int64
	iters       int
}

func (s pairedSample) result(name string) Result {
	return Result{
		Name:        name,
		Iterations:  s.iters,
		NsPerOp:     s.nsPerOp,
		AllocsPerOp: s.allocsPerOp,
		BytesPerOp:  s.bytesPerOp,
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
