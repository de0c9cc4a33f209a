package bypass

import (
	"math/rand"
	"testing"

	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// recordingOracle logs every pattern the attack queries.
type recordingOracle struct {
	oracle.Oracle
	queries map[uint64]int
}

func (r *recordingOracle) Query(in []bool) ([]bool, error) {
	r.queries[netlist.UintFromPattern(in)]++
	return r.Oracle.Query(in)
}

// TestEngineLegacyDifferential holds the engine-backed generic bypass to
// references that share no code with internal/engine, on the
// one-point-function schemes the attack targets. The wrong-key pair is
// redrawn from the seed exactly as RunGenericOpts draws it, and
// simulating both keys and the host on every input pattern yields, by
// brute force:
//
//   - the witness set (patterns where the two keys disagree): the attack
//     must query the oracle on exactly these patterns, each once;
//   - the fix set (witnesses where the applied key is the wrong one):
//     the fix count must equal its size.
//
// The corrected circuit must match the host on every input pattern by
// simulation and be proven equivalent by the plain-encoder miter, and
// the engine must encode the miter exactly once.
func TestEngineLegacyDifferential(t *testing.T) {
	h, err := synth.Generate(synth.Config{Name: "bh", Inputs: 11, Outputs: 3, Gates: 55, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	const seed = 9
	for _, name := range []string{"antisat", "sarlock"} {
		sch, ok := lock.SchemeByName(name)
		if !ok {
			t.Fatalf("scheme %q not registered", name)
		}
		t.Run(name, func(t *testing.T) {
			locked, _, err := sch.Apply(h.Clone(), 3)
			if err != nil {
				t.Fatal(err)
			}
			tel := telemetry.New()
			orc := &recordingOracle{Oracle: oracle.MustNewSim(h), queries: map[uint64]int{}}
			res, err := RunGenericOpts(locked.Circuit, orc, Options{MaxFixes: 64, Seed: seed, Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}

			nk := locked.Circuit.NumKeys()
			rng := rand.New(rand.NewSource(seed))
			keyA, keyB := make([]bool, nk), make([]bool, nk)
			for i := range keyA {
				keyA[i] = rng.Intn(2) == 1
				keyB[i] = rng.Intn(2) == 1
			}
			for i := range keyA {
				if res.AppliedKey[i] != keyA[i] {
					t.Fatalf("applied key bit %d differs from the seed's draw", i)
				}
			}
			simL := netlist.MustNewSimulator(locked.Circuit)
			simH := netlist.MustNewSimulator(h)
			simC := netlist.MustNewSimulator(res.Circuit)
			// run copies the outputs out of the simulator's reused buffer.
			run := func(sim *netlist.Simulator, in, key []bool) []bool {
				out, err := sim.Run(in, key)
				if err != nil {
					t.Fatal(err)
				}
				return append([]bool(nil), out...)
			}
			differs := func(a, b []bool) bool {
				for i := range a {
					if a[i] != b[i] {
						return true
					}
				}
				return false
			}
			witnesses, fixes := 0, 0
			nIn := h.NumInputs()
			for p := uint64(0); p < 1<<uint(nIn); p++ {
				in := netlist.PatternFromUint(p, nIn)
				want := run(simH, in, nil)
				outA := run(simL, in, keyA)
				outB := run(simL, in, keyB)
				if differs(outA, outB) {
					witnesses++
					if orc.queries[p] != 1 {
						t.Fatalf("witness %b queried %d times, want once", p, orc.queries[p])
					}
					if differs(outA, want) {
						fixes++
					}
				} else if orc.queries[p] != 0 {
					t.Fatalf("non-witness %b was queried", p)
				}
				if differs(run(simC, in, nil), want) {
					t.Fatalf("corrected circuit differs from the host on %b", p)
				}
			}
			if res.Fixes != fixes {
				t.Fatalf("fixes = %d, brute force %d", res.Fixes, fixes)
			}
			if got := tel.Counter("engine_witnesses_total").Value(); got != uint64(witnesses) {
				t.Fatalf("engine_witnesses_total = %d, brute force %d witnesses", got, witnesses)
			}
			if witnesses == 0 {
				t.Fatal("the wrong-key pair has no witnesses; the test instance is too weak")
			}
			eq, cex, err := miter.ProveEquivalent(res.Circuit, h)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatalf("plain-encoder miter refutes the bypassed circuit (cex %v)", cex)
			}
			if got := tel.Counter("engine_encodings_total").Value(); got != 1 {
				t.Fatalf("engine_encodings_total = %d, want 1", got)
			}
		})
	}
}
