package experiments

import "testing"

// TestCorruptibilityOrdering reproduces the paper's Table I row-6
// observation: an all-AND chain terminated by an OR gate maximizes
// output corruption, while the Anti-SAT-style all-AND chain minimizes
// it, with mixed chains in between.
func TestCorruptibilityOrdering(t *testing.T) {
	configs := []string{
		"9A",      // Anti-SAT degenerate: one corrupted pattern per key
		"4A-O-4A", // OR in the middle
		"8A-O",    // the paper's max-corruption shape
	}
	results := make([]*CorruptibilityResult, len(configs))
	for i, cfg := range configs {
		res, err := MeasureCorruptibility(cfg, 12, int64(50+i))
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if !(results[0].Mean < results[1].Mean && results[1].Mean < results[2].Mean) {
		t.Errorf("corruption ordering violated: %v < %v < %v expected",
			results[0].Mean, results[1].Mean, results[2].Mean)
	}
	// Anti-SAT corrupts at most one block pattern per wrong key.
	if results[0].Max > 1.0/512+1e-9 {
		t.Errorf("Anti-SAT corruption %v exceeds one pattern", results[0].Max)
	}
}

// TestCorruptibilityTradesAgainstDIPs: the security-corruptibility
// trade-off — more corruption (later OR gates) means more DIPs for the
// attacker to work with.
func TestCorruptibilityTradesAgainstDIPs(t *testing.T) {
	low, err := MeasureCorruptibility("6A-O-2A", 8, 61)
	if err != nil {
		t.Fatal(err)
	}
	high, err := MeasureCorruptibility("8A-O", 8, 62)
	if err != nil {
		t.Fatal(err)
	}
	if !(high.Mean > low.Mean && high.DIPFormula > low.DIPFormula) {
		t.Errorf("trade-off violated: corruption %v/%v, DIPs %d/%d",
			low.Mean, high.Mean, low.DIPFormula, high.DIPFormula)
	}
	// Pinned: the corrupted counts are exact and the wrong keys are drawn
	// from the seed, so these fractions repeat bit for bit.
	for _, c := range []struct {
		res       *CorruptibilityResult
		mean, max float64
	}{
		{low, 0.110107421875, 0.1259765625},
		{high, 0.37451171875, 0.4990234375},
	} {
		if c.res.Mean != c.mean || c.res.Max != c.max {
			t.Errorf("%s: mean/max %v/%v, pinned %v/%v", c.res.Chain, c.res.Mean, c.res.Max, c.mean, c.max)
		}
	}
}

func TestCorruptibilityValidation(t *testing.T) {
	if _, err := MeasureCorruptibility("30A", 1, 1); err == nil {
		t.Error("over-wide chain accepted")
	}
	if _, err := MeasureCorruptibility("bogus", 1, 1); err == nil {
		t.Error("bad chain accepted")
	}
}
