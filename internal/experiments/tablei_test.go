package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/oracle"
	"repro/internal/synth"
)

// TestIndependentPolaritiesTableI32 attacks every Table-I |K|=32 row at
// seeds 1–4 with the blocks locked by independent random key-gate
// polarities (RunTableIRow's MatchPaperRegime=false lock). On these
// instances the δ recovery's translate scan can hit its cap after a
// match, so the candidate list it holds is incomplete; the attack must
// fall back to the calibration sweep rather than verify the truncated
// list and report an inconsistent oracle. Every key must be accepted by
// the instance. Four instances that the capped scan used to fail on also
// have their key proven unlocking by the SAT miter; the plain miter
// proof on c6288's multiplier host runs for minutes, so the proof is
// kept to those four.
func TestIndependentPolaritiesTableI32(t *testing.T) {
	if testing.Short() {
		t.Skip("32 Table-I attacks")
	}
	proved := map[string]bool{"c432/1": true, "c880/1": true, "c2670/2": true, "c7552/2": true}
	for _, row := range TableI32 {
		prof, err := synth.ProfileByName(row.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		chain := lock.MustParseChain(row.Chain)
		for seed := int64(1); seed <= 4; seed++ {
			label := fmt.Sprintf("%s/%d", row.Benchmark, seed)
			host, err := synth.Generate(synth.FromProfile(prof, seed))
			if err != nil {
				t.Fatal(err)
			}
			locked, inst, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: seed + 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(core.Options{Locked: locked.Circuit, Oracle: oracle.MustNewSim(host),
				Seed: seed + 3, Workers: 1})
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			if !inst.IsCorrectCASKey(res.Key) {
				t.Errorf("%s: instance rejects the recovered key", label)
			}
			if !proved[label] {
				continue
			}
			ok, err := miter.ProveUnlocked(locked.Circuit, res.Key, host)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("%s: recovered key does not unlock the design", label)
			}
		}
	}
}
