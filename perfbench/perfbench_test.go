package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// runReportOf runs the benchmark in-process and decodes its last line.
func runReportOf(t *testing.T, args ...string) runReport {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep runReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("perfbench %v: last line: %v", args, err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("perfbench %v: %d of %d ops failed\n%s", args, rep.Failed, rep.Attempted, errOut.String())
	}
	return rep
}

// TestCountsRepeatForFixedSeed runs every workload briefly twice per
// mode with one seed: the counts the program makes must repeat exactly,
// since they are the evidence a later change may rest a claim on.
func TestCountsRepeatForFixedSeed(t *testing.T) {
	ops := map[string]int{"tablei32": 10, "k52_walk": 4, "sat_capped": 6, "served": 24}
	exact := map[string][]string{
		"0": {"chip_queries_per_op"},
		"1": {"sat.conflicts_per_op", "core.candidates_per_op", "core.extractions_per_op",
			"oracle.calls_per_op", "service.cache_hit_ratio"},
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w.name, "--seed", "11", "--trace", trace,
				"--ops", strconv.Itoa(ops[w.name])}
			a, b := runReportOf(t, args...), runReportOf(t, args...)
			for _, m := range exact[trace] {
				if a.Metrics[m].Value != b.Metrics[m].Value {
					t.Errorf("%s trace=%s: %s = %v then %v", w.name, trace, m, a.Metrics[m].Value, b.Metrics[m].Value)
				}
			}
			if trace == "0" && a.Metrics["chip_queries_per_op"].Value <= 0 {
				t.Errorf("%s: chip_queries_per_op = %v, want > 0", w.name, a.Metrics["chip_queries_per_op"].Value)
			}
		}
	}
}

// TestSeedChangesInputs checks that a held-out seed generates different
// inputs for every workload, and the same seed the same inputs.
func TestSeedChangesInputs(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"tablei32": func(seed int64) string {
			in, _, err := tableI32Instance(seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			return in.lockedText
		},
		"k52_walk": func(seed int64) string {
			in, _, err := k52Instance(seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			return in.lockedText
		},
		"sat_capped": func(seed int64) string {
			in, _, err := satInstance(seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			return in.lockedText
		},
		"served": func(seed int64) string {
			req, err := servedInstance(seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			return string(req.body)
		},
	}
	for _, w := range workloads {
		gen := gens[w.name]
		if gen == nil {
			t.Fatalf("no input generator check for workload %s", w.name)
		}
		if gen(11) != gen(11) {
			t.Errorf("%s: seed 11 generated different inputs twice", w.name)
		}
		if gen(11) == gen(12) {
			t.Errorf("%s: seeds 11 and 12 generated the same inputs", w.name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which is how spreads are judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// TestBenchmarkSpecMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step: same names, same units, every gated
// workload runnable.
func TestBenchmarkSpecMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
	check := func(kind string, want []string, got []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		listed := make(map[string]bool)
		for _, m := range got {
			listed[m.Name] = true
			if u := unitOf(m.Name); u != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the program", kind, m.Name, m.Unit, u)
			}
		}
		for _, n := range want {
			if !listed[n] {
				t.Errorf("%s: %s is reported but not listed in BENCHMARK.json", kind, n)
			}
		}
	}
	check("end_to_end", endToEndNames, spec.EndToEnd)
	check("per_layer", perLayerNames, spec.PerLayer)
}
