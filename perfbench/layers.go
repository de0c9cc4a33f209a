package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// corePhases are the attack's pipeline spans (see DESIGN.md §7); the
// per-layer split reports each one's self time per op.
var corePhases = []string{"calibrate", "enumerate", "decode", "algo1", "algo2", "verify"}

// layers accumulates the per-layer evidence of a run's traced ops. Sums
// are divided by the traced op count when the run reports.
type layers struct {
	ops       int                // traced ops
	opTime    time.Duration      // their summed latency
	untraced  int                // untraced ops interleaved with them
	untracedT time.Duration      // their summed latency
	sum       map[string]float64 // metric name → running total
	crossover map[string]int     // "engine/reason" of each op's DIP extraction → ops
	events    []chromeEvent      // every traced op's spans, for the trace file
}

func newLayers() *layers {
	return &layers{sum: make(map[string]float64), crossover: make(map[string]int)}
}

func (l *layers) add(name string, v float64) { l.sum[name] += v }

// opTrace is the instrumentation one traced op carries: a fresh
// registry handed to the program, an oracle wrapper, and the runtime
// counters at op start.
type opTrace struct {
	reg *telemetry.Registry
	op  *telemetry.Span
	rt  runtimeSample
}

func startOpTrace() *opTrace {
	reg := telemetry.New()
	return &opTrace{reg: reg, op: reg.StartSpan("op"), rt: readRuntime()}
}

// span opens a benchmark-side span around one call into a layer's
// public API. Safe on a nil receiver (untraced ops).
func (t *opTrace) span(name string) *telemetry.Span {
	if t == nil {
		return nil
	}
	return t.op.Child(name)
}

// registry is the registry to hand the program (nil when untraced).
func (t *opTrace) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// finish closes the op's span tree and folds its evidence into l: span
// self times, registry counters, and runtime deltas.
func (t *opTrace) finish(l *layers, opIndex int, lat time.Duration) {
	t.op.End()
	rt := readRuntime()
	l.ops++
	l.opTime += lat
	recs := t.reg.SpanRecords()
	self := selfTimes(recs)
	for _, p := range corePhases {
		l.add("core."+p+"_ms", ms(self[p]))
	}
	l.add("bench.parse_ms", ms(self["bench.parse"]))
	engine, reason := "", "pinned"
	for _, rec := range recs {
		switch rec.Name {
		case "extract":
			if engine == "" {
				engine = rec.Args["engine"]
			}
		case "calibrate":
			reason = rec.Args["reason"]
		case "attack_satattack":
			l.add("attack.iter_ms", ms(rec.Dur)) // divided by the iterations
		}
	}
	if engine != "" {
		l.crossover[engine+"/"+reason]++
		if engine == "sat" {
			l.add("core.crossover_sat_share", 1)
		}
	}
	snap := t.reg.Snapshot()
	for metric, counter := range map[string]string{
		"sat.conflicts_per_op":              "sat_conflicts_total",
		"sat.propagations_per_op":           "sat_propagations_total",
		"sat.decisions_per_op":              "sat_decisions_total",
		"sat.solve_calls_per_op":            "sat_solve_calls_total",
		"engine.encodings_per_op":           "engine_encodings_total",
		"engine.distinguish_unknown_per_op": "engine_distinguish_unknown_total",
	} {
		l.add(metric, float64(snap.Counters[counter]))
	}
	l.add("go.gc_per_op", rt.gcCycles-t.rt.gcCycles)
	l.add("go.alloc_mb_per_op", (rt.allocBytes-t.rt.allocBytes)/(1<<20))
	l.add("go.gc_cpu_s", rt.gcCPU-t.rt.gcCPU)
	l.add("go.cpu_s", rt.totalCPU-t.rt.totalCPU)
	l.events = append(l.events, toChrome(recs, opIndex)...)
}

// selfTimes sums, per span name, each span's duration minus the time
// its direct children (by parent ID) cover.
func selfTimes(recs []telemetry.SpanRecord) map[string]time.Duration {
	children := make(map[uint64]time.Duration)
	for _, r := range recs {
		if r.Parent != 0 {
			children[r.Parent] += r.Dur
		}
	}
	out := make(map[string]time.Duration)
	for _, r := range recs {
		if d := r.Dur - children[r.ID]; d > 0 {
			out[r.Name] += d
		}
	}
	return out
}

// chromeEvent is one complete event of the Chrome trace format, the
// same shape telemetry.WriteChromeTrace emits. Each traced op becomes
// its own process row (pid = op index).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

func toChrome(recs []telemetry.SpanRecord, pid int) []chromeEvent {
	out := make([]chromeEvent, len(recs))
	for i, r := range recs {
		out[i] = chromeEvent{Name: r.Name, Ph: "X", Ts: float64(r.Start) / 1e3,
			Dur: float64(r.Dur) / 1e3, Pid: pid, Tid: r.Lane, Args: r.Args}
	}
	return out
}

// phaseTimesFromChrome sums the attack phase spans of a job trace served
// by GET /v1/attacks/{id}/trace. The Chrome format carries no parent
// IDs; the phase spans have no children of their own, so their
// durations are their self times.
func phaseTimesFromChrome(trace []byte) (map[string]time.Duration, error) {
	var evs []chromeEvent
	if err := json.Unmarshal(trace, &evs); err != nil {
		return nil, err
	}
	out := make(map[string]time.Duration)
	for _, e := range evs {
		out[e.Name] += time.Duration(e.Dur * 1e3)
	}
	return out, nil
}

// writeTrace stores the traced ops' spans as one Chrome-trace file.
func (l *layers) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, e := range l.events {
		data, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.Write(data)
	}
	buf.WriteString("\n]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// metrics turns the sums into the per_layer metrics of BENCHMARK.json.
// Most sums are recorded under their metric's own name and reported as
// a per-op mean; the rest are ratios of other sums.
func (l *layers) metrics() map[string]float64 {
	n := float64(l.ops)
	out := make(map[string]float64, len(perLayerNames))
	for _, name := range perLayerNames {
		out[name] = ratio(l.sum[name], n)
	}
	out["oracle.busy_share"] = ratio(l.sum["oracle.busy_ms"], ms(l.opTime))
	out["attack.iter_ms"] = ratio(l.sum["attack.iter_ms"], l.sum["attack.iterations"])
	// Queue wait and run time exist only for requests that ran an attack.
	out["service.queue_wait_ms"] = ratio(l.sum["service.queue_wait_ms"], l.sum["service.misses"])
	out["service.run_ms"] = ratio(l.sum["service.run_ms"], l.sum["service.misses"])
	out["go.gc_cpu_share"] = ratio(l.sum["go.gc_cpu_s"], l.sum["go.cpu_s"])
	// Tracing overhead: traced over untraced throughput of the
	// interleaved ops, each side's throughput being ops per busy second.
	out["trace.overhead"] = ratio(ratio(n, l.opTime.Seconds()), ratio(float64(l.untraced), l.untracedT.Seconds()))
	return out
}

// perLayerNames lists the per_layer metrics of BENCHMARK.json in report
// order, with units. Workloads that do not use a layer report 0 for it.
var perLayerNames = []string{
	"core.calibrate_ms", "core.enumerate_ms", "core.decode_ms", "core.algo1_ms",
	"core.algo2_ms", "core.verify_ms", "core.extractions_per_op",
	"core.candidates_per_op", "core.crossover_sat_share",
	"oracle.calls_per_op", "oracle.busy_ms", "oracle.busy_share",
	"sat.conflicts_per_op", "sat.propagations_per_op", "sat.decisions_per_op",
	"sat.solve_calls_per_op", "engine.encodings_per_op",
	"engine.distinguish_unknown_per_op", "attack.iter_ms",
	"service.submit_ms", "service.queue_wait_ms", "service.run_ms",
	"service.done_to_result_ms", "service.cache_hit_ratio",
	"service.result_not_ready_per_op", "service.sse_resumes_per_op", "bench.parse_ms",
	"go.gc_per_op", "go.alloc_mb_per_op", "go.gc_cpu_share", "trace.overhead",
}

// unitOf names a metric's unit from its suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"), strings.HasSuffix(name, "_mb_per_op"):
		return "MB"
	case strings.HasSuffix(name, "_per_op"):
		return "count"
	default:
		return "ratio"
	}
}

// timedOracle wraps the chip oracle for traced ops: it counts calls and
// the time spent inside them. It implements BatchOracle, so the attack
// keeps its batched EvalMany path.
type timedOracle struct {
	inner *oracle.Sim
	calls atomic.Uint64
	busy  atomic.Int64 // nanoseconds
}

func (o *timedOracle) NumInputs() int  { return o.inner.NumInputs() }
func (o *timedOracle) NumOutputs() int { return o.inner.NumOutputs() }

func (o *timedOracle) since(t time.Time, calls int) {
	o.busy.Add(int64(time.Since(t)))
	o.calls.Add(uint64(calls))
}

func (o *timedOracle) Query(in []bool) ([]bool, error) {
	defer o.since(time.Now(), 1)
	return o.inner.Query(in)
}

func (o *timedOracle) Query64(in []uint64) ([]uint64, error) {
	defer o.since(time.Now(), 1)
	return o.inner.Query64(in)
}

func (o *timedOracle) EvalMany(ins [][]uint64) ([][]uint64, error) {
	defer o.since(time.Now(), 1)
	return o.inner.EvalMany(ins)
}

// record folds the wrapper's tallies into l.
func (o *timedOracle) record(l *layers) {
	l.add("oracle.calls_per_op", float64(o.calls.Load()))
	l.add("oracle.busy_ms", float64(o.busy.Load())/1e6)
}

// runtimeSample is the slice of runtime/metrics the go.* metrics use.
type runtimeSample struct {
	gcCycles, allocBytes, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}
