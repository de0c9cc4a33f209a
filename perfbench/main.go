// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One run measures one workload for a fixed time and prints,
// as its last line, a JSON object with the end-to-end metrics (--trace
// 0) or the per-layer split (--trace 1). See README.md for the metrics,
// the workloads and the layer map.
//
//	perfbench --workload tablei32 --seed 1 --seconds 20 --trace 0
//	perfbench --workload served --seed 1 --seconds 20 --trace 1
//	perfbench --workload k52_walk --steady 5    # spread over 5 seeds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// endToEndNames lists the end_to_end metrics of BENCHMARK.json.
var endToEndNames = []string{"setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "chip_queries_per_op", "peak_rss_mb"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadList())
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "length of the timed region")
	trace := fs.Int("trace", 0, "1 = per-layer run: instrument every other op and report the per_layer metrics")
	ops := fs.Int("ops", 0, "run exactly this many timed ops instead of --seconds (for exact-count checks)")
	steady := fs.Int("steady", 0, "steadiness mode: run the workload N times with seeds seed..seed+N-1 and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s) and --trace 0|1\n", workloadList())
		return 2
	}
	if *steady > 0 {
		return steadiness(w, *seed, *seconds, *trace, *steady, stdout, stderr)
	}

	r := &runner{seed: *seed, seconds: *seconds, fixedOps: *ops, traced: *trace == 1,
		log: stderr, layers: newLayers(), workers: "GOMAXPROCS"}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d ops=%d\n", w.name, *seed, *seconds, *trace, *ops)
	fmt.Fprintf(stdout, "why: %s\n", w.why)
	if err := w.run(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "env: num_cpu=%d gomaxprocs=%d go=%s workers=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), r.workers)
	fmt.Fprintf(stdout, "ops: attempted=%d failed=%d timed=%d setups=%d fail_ratio=%g\n",
		r.attempted, r.failed, len(r.latencies), len(r.setups), ratio(float64(r.failed), float64(r.attempted)))
	if len(r.setups) > 0 {
		fmt.Fprintf(stdout, "setup: samples=%d first=%.6fs median=%.6fs\n",
			len(r.setups), r.setups[0].Seconds(), medianDuration(r.setups).Seconds())
	}
	if r.fixedOps > 0 && len(r.latencies) < minTimedOps {
		fmt.Fprintf(stdout, "note: %d timed ops; op_p90_ms has fewer than 10 samples beyond it\n", len(r.latencies))
	}

	var names []string
	var values map[string]float64
	if r.traced {
		names, values = perLayerNames, r.layers.metrics()
		fmt.Fprintf(stdout, "crossover: %s\n", tally(r.layers.crossover))
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := r.layers.writeTrace(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %s (%d spans of %d traced ops)\n", path, len(r.layers.events), r.layers.ops)
	} else {
		names, values = endToEndNames, r.endToEnd()
	}
	metrics := make(map[string]any, len(names))
	for _, n := range names {
		v := values[n]
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", n, v, unitOf(n))
		metrics[n] = map[string]any{"value": v, "unit": unitOf(n)}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEnd computes the end_to_end metrics of an untraced run.
func (r *runner) endToEnd() map[string]float64 {
	lat := durationsMS(r.latencies)
	var busy time.Duration
	for _, d := range r.latencies {
		busy += d
	}
	n := float64(len(r.latencies))
	return map[string]float64{
		"setup_s":             medianDuration(r.setups).Seconds(),
		"op_p50_ms":           quantile(lat, 0.5),
		"op_p90_ms":           quantile(lat, 0.9),
		"ops_per_s":           ratio(n, busy.Seconds()),
		"chip_queries_per_op": ratio(float64(r.queries), n),
		"peak_rss_mb":         peakRSSMB(),
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func workloadList() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// tally renders a count map as "k=v" pairs in key order.
func tally(m map[string]int) string {
	if len(m) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}
