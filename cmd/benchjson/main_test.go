package main

import (
	"math"
	"testing"
)

// record builds a one-workload report: tablei32's op_p50_ms with the
// given median and IQR, under the given reference median.
func record(p50, iqr, ref float64) *Report {
	return &Report{
		Timestamp: "t",
		Reference: Stat{Median: ref, Q1: ref, Q3: ref, N: 5, Unit: "ns"},
		Workloads: []Workload{{Name: "tablei32", Gated: true, EndToEnd: map[string]Stat{
			"op_p50_ms": {Median: p50, Q1: p50 - iqr/2, Q3: p50 + iqr/2, N: 5, Unit: "ms"},
		}}},
	}
}

func TestGateNormalizesByReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		p50, ref float64 // after, with the baseline at 10 ms and 1 ns
		fail     bool
	}{
		{"slower machine, same code", 13, 1.3, false},
		{"faster machine, flat time", 10, 0.75, true},
		{"same machine, +30%", 13, 1, true},
		{"same machine, +10%", 11, 1, false},
	} {
		d := computeDelta(record(10, 0.4, 1), record(tc.p50, 0.4, tc.ref))
		if d == nil {
			t.Fatalf("%s: no delta", tc.name)
		}
		rep := &Report{Delta: d}
		if got := len(gateFailures(rep, 0.20)) > 0; got != tc.fail {
			t.Errorf("%s: gated change %+.3f, failed %v, want %v", tc.name, d.GatedP50Change, got, tc.fail)
		}
		if m := d.Metrics[0]; math.Abs(m.Normalized-d.GatedP50Change) > 1e-12 {
			t.Errorf("%s: metric normalized change %v, want %v", tc.name, m.Normalized, d.GatedP50Change)
		}
	}
}

func TestDeltaWithinNoise(t *testing.T) {
	base := record(10, 1, 1) // IQR 9.5 .. 10.5
	for _, tc := range []struct {
		p50   float64
		noise bool
	}{{10.9, true}, {9.2, true}, {11.2, false}, {8.8, false}} {
		d := computeDelta(base, record(tc.p50, 1, 1))
		if got := d.Metrics[0].WithinNoise; got != tc.noise {
			t.Errorf("p50 10 -> %v: within_noise %v, want %v", tc.p50, got, tc.noise)
		}
	}
	// An exact count with no spread that did not move is not a change.
	d := computeDelta(record(10, 0, 1), record(10, 0, 1))
	if !d.Metrics[0].WithinNoise {
		t.Error("unchanged value with zero IQR not marked within_noise")
	}
}

func TestGateOverheadsAndForeignBaseline(t *testing.T) {
	rep := &Report{Overheads: []Overhead{
		{Name: "checkpoint", Change: 0.049, Limit: maxCheckpointOverhead},
		{Name: "events", Change: 0.051, Limit: maxEventOverhead},
	}}
	if fails := gateFailures(rep, 0.20); len(fails) != 1 {
		t.Errorf("overhead gate failures %q, want only the events pair", fails)
	}
	// A baseline without a reference or shared workloads (an older
	// format) yields no delta rather than a fabricated regression.
	if d := computeDelta(&Report{}, record(10, 1, 1)); d != nil {
		t.Errorf("delta against a foreign baseline: %+v", d)
	}
	other := record(10, 1, 1)
	other.Workloads[0].Name = "served"
	if d := computeDelta(other, record(10, 1, 1)); d != nil {
		t.Errorf("delta without shared workloads: %+v", d)
	}
}

func TestQuartilesMatchPerfbench(t *testing.T) {
	// Python: statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3, 4.5]
	q1, med, q3 := quartiles([]float64{5, 3, 1, 4, 2})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
}

func TestMedianPairRatio(t *testing.T) {
	// Ratios 0.80, 1.00, 1.02, 1.04, 1.06, 1.10, 1.20, 1.30: the best
	// ratio would read -20%; the median of the eight is 1.05.
	plain := []int64{100, 100, 100, 100, 100, 100, 100, 100}
	armed := []int64{80, 120, 104, 130, 100, 106, 110, 102}
	p, a, change := medianPairRatio(plain, armed)
	if p != 100 || a != 105 || math.Abs(change-0.05) > 1e-12 {
		t.Errorf("medianPairRatio = %d, %d, %+.4f; want 100, 105, +0.0500", p, a, change)
	}
	// Pairs are reduced as pairs: a slow plain block is judged against
	// its own armed block, not against the other pairs.
	p, a, change = medianPairRatio([]int64{100, 200, 100}, []int64{101, 202, 103})
	if p != 100 || a != 103 || math.Abs(change-0.01) > 1e-12 {
		t.Errorf("medianPairRatio = %d, %d, %+.4f; want 100, 103, +0.0100", p, a, change)
	}
}
