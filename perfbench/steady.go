package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runReport is the last line of one run's output.
type runReport struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory; a missing file yields no bounds.
func loadBounds() map[string]float64 {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return nil
	}
	out := make(map[string]float64, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// steadiness runs the workload n times in fresh processes, seeds
// seed..seed+n-1, echoes each run's environment lines, and prints every
// metric's median, quartiles, extremes and interquartile spread (as a
// share of the median) against the metric's bound. A spread at or above
// a third of its bound is flagged: the benchmark's acceptance rule
// needs headroom between the noise and the bound.
func steadiness(w workload, seed int64, seconds float64, trace, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	bounds := loadBounds()
	values := make(map[string][]float64)
	var names []string
	for k := 0; k < n; k++ {
		s := seed + int64(k)
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep runReport
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			fmt.Fprintf(stderr, "perfbench: run with seed %d: bad result line: %v\n", s, err)
			return 1
		}
		for _, l := range lines {
			if strings.HasPrefix(l, "env:") || strings.HasPrefix(l, "ops:") || strings.HasPrefix(l, "crossover:") {
				fmt.Fprintf(stdout, "seed %d %s\n", s, l)
			}
		}
		if !rep.Correct {
			fmt.Fprintf(stdout, "seed %d: INCORRECT (%d of %d ops failed)\n", s, rep.Failed, rep.Attempted)
		}
		if names == nil {
			for _, m := range endToEndNames {
				if _, ok := rep.Metrics[m]; ok {
					names = append(names, m)
				}
			}
			if trace == 1 {
				names = perLayerNames
			}
		}
		for m, v := range rep.Metrics {
			values[m] = append(values[m], v.Value)
		}
	}
	fmt.Fprintf(stdout, "%-34s %12s %12s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "bound")
	for _, m := range names {
		xs := values[m]
		q1, med, q3 := quartiles(xs)
		spread := ratio(q3-q1, med)
		flag := ""
		b, ok := bounds[m]
		bound := "-"
		if ok && trace == 0 {
			bound = strconv.FormatFloat(b, 'g', -1, 64)
			if m != "setup_s" && spread >= b/3 {
				flag = "  NOISY"
			}
		}
		fmt.Fprintf(stdout, "%-34s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %6s%s\n",
			m, med, q1, q3, quantile(xs, 0), quantile(xs, 1), spread, bound, flag)
	}
	return 0
}
