package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/oracle"
	"repro/internal/synth"
)

// TestIndependentPolaritiesTableI32 attacks Table-I |K|=32 instances
// locked with independent random key-gate polarities in the two blocks
// (RunTableIRow's MatchPaperRegime=false lock). On these instances the
// δ recovery's translate scan hits its cap after a match, so the
// candidate list it holds is incomplete; the attack must fall back to
// the calibration sweep rather than verify the truncated list and
// report an inconsistent oracle. Every key must be accepted by the
// instance and proven unlocking by the SAT miter.
func TestIndependentPolaritiesTableI32(t *testing.T) {
	if testing.Short() {
		t.Skip("four Table-I attacks")
	}
	for _, tc := range []struct {
		bench string
		seed  int64
	}{{"c432", 1}, {"c880", 1}, {"c2670", 2}, {"c7552", 2}} {
		var row TableIRow
		for _, r := range TableI32 {
			if r.Benchmark == tc.bench {
				row = r
			}
		}
		prof, err := synth.ProfileByName(row.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		host, err := synth.Generate(synth.FromProfile(prof, tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		chain := lock.MustParseChain(row.Chain)
		locked, inst, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: tc.seed + 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(core.Options{Locked: locked.Circuit, Oracle: oracle.MustNewSim(host), Seed: tc.seed + 3})
		if err != nil {
			t.Errorf("%s seed %d: %v", tc.bench, tc.seed, err)
			continue
		}
		if !inst.IsCorrectCASKey(res.Key) {
			t.Errorf("%s seed %d: instance rejects the recovered key", tc.bench, tc.seed)
		}
		ok, err := miter.ProveUnlocked(locked.Circuit, res.Key, host)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%s seed %d: recovered key does not unlock the design", tc.bench, tc.seed)
		}
	}
}
