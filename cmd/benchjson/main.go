// Command benchjson writes BENCH_core.json, the repository's performance
// record. It runs every perfbench workload in fresh processes (several
// seeds untraced for the end-to-end metrics, a few traced for the
// per-layer split), times a machine-speed reference in the same session,
// measures the checkpoint and event-bus overhead pairs, and diffs the
// result against the committed record.
//
//	benchjson                        # rewrite BENCH_core.json, diffed against itself
//	benchjson -o /tmp/b.json -baseline BENCH_core.json -max-regress 0.20
//
// Run it from the repository root: it starts `bash perfbench/run.sh`.
// With -max-regress set it exits nonzero when the gated workloads'
// reference-normalized op_p50_ms aggregate regresses by more than that
// fraction, or when either overhead pair exceeds its 5% limit —
// `make bench-compare` uses this.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// workloads are the perfbench workloads the record covers; gated ones
// (BENCHMARK.json's) feed the bench-compare aggregate. endToEnd lists
// the end-to-end metrics in report order.
var workloads = []struct {
	name  string
	gated bool
}{{"tablei32", true}, {"sat_capped", true}, {"served", true}, {"k52_walk", false}}

var endToEnd = []string{"setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "chip_queries_per_op", "peak_rss_mb"}

const (
	e2eRuns      = 5 // untraced runs per workload, seeds 1..e2eRuns
	e2eSeconds   = 5 // timed region of an untraced run (perfbench adds ops up to 100)
	traceRuns    = 2 // traced runs per workload, seeds 1..traceRuns
	traceSeconds = 3

	// refBlock is the length of one reference timing block.
	refBlock = 200 * time.Millisecond

	// maxCheckpointOverhead caps what an armed checkpoint writer may add
	// to a full attack's wall time: the hot-loop contract is two atomics
	// per progress event, so anything past 5% is a broken cadence path.
	maxCheckpointOverhead = 0.05
	// maxEventOverhead caps what an attached, actively draining event
	// subscriber may add: the DIP publisher batches per dipEventBatch
	// and Publish never blocks, so anything past 5% means an event found
	// its way onto a per-unit path.
	maxEventOverhead = 0.05
)

// Stat summarizes one metric over repeated runs.
type Stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit,omitempty"`
}

// Workload is one perfbench workload's record.
type Workload struct {
	Name     string          `json:"name"`
	Gated    bool            `json:"gated"`
	EndToEnd map[string]Stat `json:"end_to_end"`
	PerLayer map[string]Stat `json:"per_layer"`
}

// Overhead is one armed-vs-unarmed attack pair.
type Overhead struct {
	Name         string  `json:"name"`
	PlainNsPerOp int64   `json:"plain_ns_per_op"`
	ArmedNsPerOp int64   `json:"armed_ns_per_op"`
	Change       float64 `json:"change"`
	Limit        float64 `json:"limit"`
}

// Report is the BENCH_core.json schema.
type Report struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Reference is Simulator.Run512 ns/pattern on BenchmarkRunWidths'
	// c7552-profile netlist, sampled before every perfbench run: the
	// machine speed that normalizes deltas across sessions.
	Reference Stat       `json:"reference_ns_per_pattern"`
	Workloads []Workload `json:"workloads"`
	Overheads []Overhead `json:"overheads"`
	Delta     *Delta     `json:"delta,omitempty"`
}

// MetricDelta is one end-to-end metric's change against the baseline.
type MetricDelta struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Before   float64 `json:"before"`
	After    float64 `json:"after"`
	// Change is (after-before)/before; Normalized is the same after
	// dividing time metrics (multiplying rates) by the session's
	// reference. Counts and sizes do not scale with machine speed, so
	// theirs equals Change.
	Change     float64 `json:"change"`
	Normalized float64 `json:"normalized_change"`
	// WithinNoise marks |after-before| below the baseline's IQR (or an
	// unchanged value, such as an exact count with no spread).
	WithinNoise bool `json:"within_noise"`
}

// Delta compares a report with its baseline.
type Delta struct {
	BaselineTimestamp string        `json:"baseline_timestamp"`
	ReferenceChange   float64       `json:"reference_change"`
	Metrics           []MetricDelta `json:"metrics"`
	// GatedP50Change is the normalized change of the summed op_p50_ms
	// medians of the gated workloads present in both reports: the
	// figure bench-compare holds to -max-regress.
	GatedP50Change float64 `json:"gated_p50_change"`
}

func main() {
	out := flag.String("o", "BENCH_core.json", "output path")
	baseline := flag.String("baseline", "", "previous report to diff against (default: the output path's existing content)")
	maxRegress := flag.Float64("max-regress", 0, "fail (exit 1) when the gated op_p50_ms aggregate regresses by more than this fraction, or an overhead pair exceeds its limit (0 = report-only)")
	flag.Parse()

	basePath := *baseline
	if basePath == "" {
		basePath = *out
	}
	// Load the baseline before anything runs (and long before the
	// atomic overwrite of the output path clobbers it).
	base, err := loadBaseline(basePath)
	fatalIf(err)

	rep := &Report{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// The overhead pairs run first, on a fresh heap: the armed variants
	// allocate more per op, and a heap inflated by earlier work
	// amplifies that into GC time the gates would misattribute.
	rep.Overheads, err = overheads()
	fatalIf(err)

	ref, err := newReference()
	fatalIf(err)
	var refs []float64
	for _, w := range workloads {
		wl := Workload{Name: w.name, Gated: w.gated}
		for _, pass := range []struct {
			trace, runs, seconds int
			into                 *map[string]Stat
		}{{0, e2eRuns, e2eSeconds, &wl.EndToEnd}, {1, traceRuns, traceSeconds, &wl.PerLayer}} {
			values := make(map[string][]float64)
			units := make(map[string]string)
			for seed := 1; seed <= pass.runs; seed++ {
				refs = append(refs, ref())
				m, err := perfbench(w.name, seed, pass.seconds, pass.trace)
				fatalIf(err)
				for name, v := range m {
					values[name] = append(values[name], v.Value)
					units[name] = v.Unit
				}
			}
			*pass.into = summarize(values, units, pass.trace == 1)
		}
		rep.Workloads = append(rep.Workloads, wl)
	}
	rep.Reference = stat(refs, "ns")
	if base != nil {
		rep.Delta = computeDelta(base, rep)
	}
	fatalIf(writeReport(*out, rep))

	fmt.Fprintf(os.Stderr, "benchjson: wrote %d workloads to %s (num_cpu=%d gomaxprocs=%d, reference %.4g ns/pattern)\n",
		len(rep.Workloads), *out, rep.NumCPU, rep.GOMAXPROCS, rep.Reference.Median)
	for _, o := range rep.Overheads {
		fmt.Fprintf(os.Stderr, "benchjson: %s overhead %s (limit %s)\n", o.Name, pct(o.Change), pct(o.Limit))
	}
	if rep.Delta != nil {
		fmt.Fprintf(os.Stderr, "benchjson: delta vs %s (%s): reference %s, gated op_p50_ms %s normalized\n",
			basePath, rep.Delta.BaselineTimestamp, pct(rep.Delta.ReferenceChange), pct(rep.Delta.GatedP50Change))
		for _, d := range rep.Delta.Metrics {
			fmt.Fprintf(os.Stderr, "benchjson:   %-10s %-19s %12.5g -> %12.5g %s (normalized %s, within noise %v)\n",
				d.Workload, d.Metric, d.Before, d.After, pct(d.Change), pct(d.Normalized), d.WithinNoise)
		}
	} else if *maxRegress > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no comparable baseline at %s; regression gate skipped\n", basePath)
	}
	if *maxRegress > 0 {
		if fails := gateFailures(rep, *maxRegress); len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "benchjson: FAIL:", f)
			}
			os.Exit(1)
		}
	}
}

// gateFailures lists every gate the report breaks: an overhead pair
// above its limit, or the gated p50 aggregate above maxRegress.
func gateFailures(rep *Report, maxRegress float64) []string {
	var fails []string
	for _, o := range rep.Overheads {
		if o.Change > o.Limit {
			fails = append(fails, fmt.Sprintf("%s overhead %s exceeds its limit %s", o.Name, pct(o.Change), pct(o.Limit)))
		}
	}
	if d := rep.Delta; d != nil && d.GatedP50Change > maxRegress {
		fails = append(fails, fmt.Sprintf("gated op_p50_ms regressed %s (reference-normalized) against %s (limit %s)",
			pct(d.GatedP50Change), d.BaselineTimestamp, pct(maxRegress)))
	}
	return fails
}

// computeDelta diffs rep against base. It returns nil when the two
// share no gated workload or base has no reference, so a baseline in
// another format never fabricates a regression.
func computeDelta(base, rep *Report) *Delta {
	if base.Reference.Median <= 0 || rep.Reference.Median <= 0 {
		return nil
	}
	speed := base.Reference.Median / rep.Reference.Median // > 1: this machine is faster
	d := &Delta{BaselineTimestamp: base.Timestamp, ReferenceChange: 1/speed - 1}
	var sumBefore, sumAfter float64
	for _, w := range rep.Workloads {
		var prev *Workload
		for i := range base.Workloads {
			if base.Workloads[i].Name == w.Name {
				prev = &base.Workloads[i]
			}
		}
		if prev == nil {
			continue
		}
		for _, name := range endToEnd {
			before, okB := prev.EndToEnd[name]
			after, okA := w.EndToEnd[name]
			if !okA || !okB || before.Median == 0 {
				continue
			}
			diff := math.Abs(after.Median - before.Median)
			md := MetricDelta{
				Workload: w.Name, Metric: name, Before: before.Median, After: after.Median,
				Change:      after.Median/before.Median - 1,
				WithinNoise: diff == 0 || diff < before.Q3-before.Q1,
			}
			md.Normalized = md.Change
			switch after.Unit {
			case "ms", "s":
				md.Normalized = (md.Change+1)*speed - 1
			case "1/s":
				md.Normalized = (md.Change+1)/speed - 1
			}
			d.Metrics = append(d.Metrics, md)
			if w.Gated && name == "op_p50_ms" {
				sumBefore += before.Median
				sumAfter += after.Median
			}
		}
	}
	if sumBefore == 0 {
		return nil
	}
	d.GatedP50Change = sumAfter/sumBefore*speed - 1
	return d
}

// perfbench runs one workload in a fresh process and returns the
// metrics of its last output line. A run with a failed op is an error.
func perfbench(workload string, seed, seconds, trace int) (map[string]metric, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("perfbench %s seed %d trace %d: %v", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("perfbench %s seed %d: bad result line: %v", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("perfbench %s seed %d trace %d: %d of %d ops failed", workload, seed, trace, res.Failed, res.Attempted)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s seed %d trace %d: %d ops\n", workload, seed, trace, res.Attempted)
	return res.Metrics, nil
}

// metric is one value of a perfbench result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize turns per-run values into Stats. With dropZero, metrics
// that read 0 in every run (layers the workload never touches) go.
func summarize(values map[string][]float64, units map[string]string, dropZero bool) map[string]Stat {
	out := make(map[string]Stat, len(values))
	for name, xs := range values {
		if dropZero && quantile(xs, 0) == 0 && quantile(xs, 1) == 0 {
			continue
		}
		out[name] = stat(xs, units[name])
	}
	return out
}

func stat(xs []float64, unit string) Stat {
	q1, med, q3 := quartiles(xs)
	return Stat{Median: med, Q1: q1, Q3: q3, N: len(xs), Unit: unit}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first quartile, median and third quartile the
// way perfbench's steadiness mode does (Python's "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), quantile(s, 0.5), at(3)
}

// newReference returns a sampler of Simulator.Run512 ns/pattern on the
// c7552-profile netlist and inputs of BenchmarkRunWidths; one sample
// times refBlock of calls.
func newReference() (func() float64, error) {
	prof, err := synth.ProfileByName("c7552")
	if err != nil {
		return nil, err
	}
	c, err := synth.Generate(synth.FromProfile(prof, 17))
	if err != nil {
		return nil, err
	}
	sim, err := netlist.NewSimulator(c)
	if err != nil {
		return nil, err
	}
	in := make([][8]uint64, c.NumInputs())
	for i := range in {
		for j := range in[i] {
			in[i][j] = 0x9e3779b97f4a7c15 * uint64(i*8+j+1)
		}
	}
	return func() float64 {
		start := time.Now()
		calls := 0
		for ; time.Since(start) < refBlock; calls += 16 {
			for i := 0; i < 16; i++ {
				_, err := sim.Run512(in, nil)
				fatalIf(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(calls*512)
	}, nil
}

// overheads measures both armed-vs-unarmed pairs on one width-12
// end-to-end attack. The checkpoint gate is about the hot-path cost of
// arming — Tick per enumerated DIP, milestone snapshot builds and the
// locked-netlist hash on the attack goroutine — so the disk stays
// off the measured path as in production: one writer shared across
// iterations (writes drain asynchronously; Close sits outside the
// timing), a cadence above the per-run event count so only milestone
// snapshots fire, and the file on /dev/shm when available. The event
// pair attaches a bus plus one subscriber draining on its own goroutine
// like the SSE handler does: publish, ring append and wakeup, the
// production path minus the network write.
func overheads() ([]Overhead, error) {
	host, err := synth.Generate(synth.Config{Name: "ch", Inputs: 16, Outputs: 4, Gates: 220, Seed: 5})
	if err != nil {
		return nil, err
	}
	chain := make(lock.ChainConfig, 11)
	for i := range chain {
		if i%3 == 1 {
			chain[i] = lock.ChainOr
		}
	}
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: 6})
	if err != nil {
		return nil, err
	}
	shm := "/dev/shm"
	if fi, err := os.Stat(shm); err != nil || !fi.IsDir() {
		shm = "" // default temp dir
	}
	dir, err := os.MkdirTemp(shm, "ckpt-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := checkpoint.NewWriter(checkpoint.WriterConfig{
		Path:        filepath.Join(dir, "snap.ckpt"),
		EveryEvents: 1 << 20, // cadence never due within one run
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()

	pairs := []struct {
		name  string
		limit float64
		arm   func(*core.Options) (done func())
	}{
		{"checkpoint", maxCheckpointOverhead, func(o *core.Options) func() {
			o.Checkpointer = w
			return func() {}
		}},
		{"events", maxEventOverhead, func(o *core.Options) func() {
			bus := events.New(events.Options{})
			sub := bus.Subscribe(0)
			drained := make(chan struct{})
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
			o.Events = bus
			return func() { bus.Close(); <-drained }
		}},
	}
	var out []Overhead
	for _, p := range pairs {
		attack := func(arm bool) error {
			opts := core.Options{
				Locked: locked.Circuit, Oracle: oracle.MustNewSim(host),
				Seed: 3, Telemetry: telemetry.New(),
			}
			done := func() {}
			if arm {
				done = p.arm(&opts)
			}
			_, err := core.Run(opts)
			done()
			return err
		}
		plain, armed, change, err := pairedRatio(attack)
		if err != nil {
			return nil, fmt.Errorf("%s overhead pair: %v", p.name, err)
		}
		out = append(out, Overhead{Name: p.name, PlainNsPerOp: plain, ArmedNsPerOp: armed, Change: change, Limit: p.limit})
	}
	return out, nil
}

// overheadPairs is the number of adjacent plain/armed block pairs an
// overhead measurement takes; the side that runs first alternates.
const overheadPairs = 8

// pairedRatio measures run(false) and run(true) in overheadPairs pairs
// of adjacent fixed-budget blocks, alternating which side runs first,
// and reduces them with medianPairRatio. Adjacent blocks share the
// machine's contention state, so each ratio survives load drift that
// would swamp independently-measured minimums on a busy host, and the
// alternation cancels any advantage of running first or second. Both
// paths are warmed once first (kernel compilation, page faults, first
// snapshot).
func pairedRatio(run func(arm bool) error) (plainNs, armedNs int64, change float64, err error) {
	if err := run(false); err != nil {
		return 0, 0, 0, err
	}
	if err := run(true); err != nil {
		return 0, 0, 0, err
	}
	var runErr error
	block := func(arm bool) int64 {
		start := time.Now()
		iters := 0
		for time.Since(start) < 600*time.Millisecond {
			if err := run(arm); err != nil {
				runErr = err
				return 1
			}
			iters++
		}
		return int64(time.Since(start)) / int64(iters)
	}
	plain := make([]int64, overheadPairs)
	armed := make([]int64, overheadPairs)
	for i := 0; i < overheadPairs && runErr == nil; i++ {
		if i%2 == 0 {
			plain[i] = block(false)
			armed[i] = block(true)
		} else {
			armed[i] = block(true)
			plain[i] = block(false)
		}
	}
	if runErr != nil {
		return 0, 0, 0, runErr
	}
	plainNs, armedNs, change = medianPairRatio(plain, armed)
	return plainNs, armedNs, change, nil
}

// medianPairRatio reduces paired plain/armed ns/op samples to the
// median plain and armed ns/op and the armed-over-plain fraction of the
// median pair: the median of the per-pair ratios, minus one. Unlike the
// best ratio, the median does not favour whichever side noise happened
// to help.
func medianPairRatio(plain, armed []int64) (plainNs, armedNs int64, change float64) {
	ratios := make([]float64, len(plain))
	ps := make([]float64, len(plain))
	as := make([]float64, len(plain))
	for i := range plain {
		ratios[i] = float64(armed[i]) / float64(plain[i])
		ps[i], as[i] = float64(plain[i]), float64(armed[i])
	}
	return int64(quantile(ps, 0.5)), int64(quantile(as, 0.5)), quantile(ratios, 0.5) - 1
}

// loadBaseline reads a previous report; a missing file is not an error
// (first run of the record), anything else is.
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

// writeReport writes the report through a temporary file and a rename,
// so an interrupted run never leaves a truncated record behind.
func writeReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// pct renders a fraction as a signed percentage.
func pct(f float64) string {
	return fmt.Sprintf("%+.1f%%", f*100)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
