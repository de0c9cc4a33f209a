package appsat

import (
	"math/bits"
	"testing"

	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// countingOracle counts the patterns the attack queries.
type countingOracle struct {
	oracle.Oracle
	queries uint64
}

func (c *countingOracle) Query(in []bool) ([]bool, error) {
	c.queries++
	return c.Oracle.Query(in)
}

// inputWords packs the 64 consecutive input patterns base..base+63 into
// per-input lane words (nIn ≥ 6, so every lane is a real pattern).
func inputWords(base uint64, nIn int) []uint64 {
	in := make([]uint64, nIn)
	for l := uint64(0); l < 64; l++ {
		for i := range in {
			in[i] |= ((base + l) >> uint(i) & 1) << l
		}
	}
	return in
}

// truth holds the host's response to every input pattern, for
// exhaustive error rates of locked-circuit keys by 64-lane simulation.
type truth struct {
	simL *netlist.Simulator
	nIn  int
	want [][]uint64 // per 64-pattern batch, one word per output
}

func newTruth(t *testing.T, locked, host *netlist.Circuit) *truth {
	t.Helper()
	tr := &truth{simL: netlist.MustNewSimulator(locked), nIn: locked.NumInputs()}
	if tr.nIn > 16 {
		t.Fatalf("exhaustive simulation over %d inputs is too large", tr.nIn)
	}
	simH := netlist.MustNewSimulator(host)
	for base := uint64(0); base < 1<<uint(tr.nIn); base += 64 {
		out, err := simH.Run64(inputWords(base, tr.nIn), nil)
		if err != nil {
			t.Fatal(err)
		}
		tr.want = append(tr.want, append([]uint64(nil), out...))
	}
	return tr
}

// errorRate is the fraction of input patterns on which key disagrees
// with the host; 0 marks a functionally correct key.
func (tr *truth) errorRate(t *testing.T, key []bool) float64 {
	t.Helper()
	kw := make([]uint64, len(key))
	for i, b := range key {
		if b {
			kw[i] = ^uint64(0)
		}
	}
	wrong := 0
	for b := range tr.want {
		got, err := tr.simL.Run64(inputWords(uint64(b)*64, tr.nIn), kw)
		if err != nil {
			t.Fatal(err)
		}
		var diff uint64
		for o := range got {
			diff |= got[o] ^ tr.want[b][o]
		}
		wrong += bits.OnesCount64(diff)
	}
	return float64(wrong) / float64(uint64(1)<<uint(tr.nIn))
}

// lexMinCorrect brute-forces every key (|K| ≤ 12) and returns the
// correct key Session.ExtractKey canonicalizes to: bit 0 decided first,
// false preferred.
func (tr *truth) lexMinCorrect(t *testing.T, nk int) []bool {
	t.Helper()
	if nk > 12 {
		t.Fatalf("brute force over %d key bits is too large", nk)
	}
	var best []bool
	for k := uint64(0); k < 1<<uint(nk); k++ {
		key := netlist.PatternFromUint(k, nk)
		if tr.errorRate(t, key) == 0 && (best == nil || lexLess(key, best)) {
			best = key
		}
	}
	if best == nil {
		t.Fatal("brute force found no correct key")
	}
	return best
}

func lexLess(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return !a[i]
		}
	}
	return false
}

// TestEngineLegacyDifferential holds the engine-backed AppSAT to
// references that share no code with internal/engine, across every
// registered scheme:
//
//   - Protocol accounting is exact: every sampling round falls on a
//     multiple of RoundInterval DIPs and costs SamplesPerRound queries,
//     so the oracle sees Iterations + (Iterations/RoundInterval) ×
//     SamplesPerRound patterns, counted outside the attack.
//   - An exact outcome (miter UNSAT) must be the lexicographically
//     smallest functionally correct key, with the correct-key set taken
//     from brute-force simulation of every key over every input, and
//     the plain-encoder miter must prove it.
//   - An approximate outcome must have passed a perfect sampling round,
//     its exhaustively simulated error rate must be below 1/16, and the
//     plain-encoder miter must prove the key exactly when that rate is 0.
//
// The attack must also encode the miter exactly once per run.
func TestEngineLegacyDifferential(t *testing.T) {
	h, err := synth.Generate(synth.Config{Name: "ah", Inputs: 12, Outputs: 3, Gates: 60, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	const roundInterval, samples, maxIter = 8, 64, 64
	for _, sch := range lock.Schemes() {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			locked, _, err := sch.Apply(h.Clone(), 11)
			if err != nil {
				t.Fatal(err)
			}
			tel := telemetry.New()
			orc := &countingOracle{Oracle: oracle.MustNewSim(h)}
			res, err := Run(locked.Circuit, orc, Options{MaxIterations: maxIter, Seed: 5,
				RoundInterval: roundInterval, SamplesPerRound: samples, Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			wantQueries := uint64(res.Iterations + res.Iterations/roundInterval*samples)
			if res.OracleQueries != wantQueries || orc.queries != wantQueries {
				t.Fatalf("oracle queries: reported %d, counted %d, want %d for %d iterations",
					res.OracleQueries, orc.queries, wantQueries, res.Iterations)
			}
			proven, err := miter.ProveUnlocked(locked.Circuit, res.Key, h)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTruth(t, locked.Circuit, h)
			rate := tr.errorRate(t, res.Key)
			if proven != (rate == 0) {
				t.Fatalf("plain-encoder miter says correct=%v, exhaustive error rate %v", proven, rate)
			}
			switch {
			case res.Exact:
				if !proven {
					t.Fatal("plain-encoder miter refutes the exact key")
				}
				if nk := locked.Circuit.NumKeys(); nk <= 12 {
					min := tr.lexMinCorrect(t, nk)
					for i := range min {
						if res.Key[i] != min[i] {
							t.Fatalf("key bit %d: attack %v, brute-force lex-min %v", i, res.Key[i], min[i])
						}
					}
				}
			case res.ErrorEstimate < 1:
				if res.ErrorEstimate != 0 || res.Iterations%roundInterval != 0 {
					t.Fatalf("settled at iteration %d with estimate %v, want a perfect round", res.Iterations, res.ErrorEstimate)
				}
				if rate >= 1.0/16 {
					t.Fatalf("approximate key's exhaustive error rate %v", rate)
				}
			default:
				if res.Iterations != maxIter {
					t.Fatalf("gave up after %d iterations, want the cap %d", res.Iterations, maxIter)
				}
			}
			if got := tel.Counter("engine_encodings_total").Value(); got != 1 {
				t.Fatalf("engine_encodings_total = %d, want 1", got)
			}
		})
	}
}
