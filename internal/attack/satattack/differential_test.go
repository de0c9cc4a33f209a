package satattack

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

// recordingOracle logs every pattern the attack queries.
type recordingOracle struct {
	oracle.Oracle
	queries [][]bool
}

func (r *recordingOracle) Query(in []bool) ([]bool, error) {
	r.queries = append(r.queries, append([]bool(nil), in...))
	return r.Oracle.Query(in)
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

// checkDIPSequence replays the attack's queried DIPs against every key
// by simulation: each DIP must split the keys that agree with the oracle
// on all earlier DIPs (otherwise it distinguishes nothing), and the
// oracle's answers must leave at least one key standing.
func checkDIPSequence(t *testing.T, locked, host *netlist.Circuit, dips [][]bool) {
	t.Helper()
	nk := locked.NumKeys()
	simL := netlist.MustNewSimulator(locked)
	simH := netlist.MustNewSimulator(host)
	alive := make([]bool, 1<<uint(nk))
	for k := range alive {
		alive[k] = true
	}
	for d, dip := range dips {
		want, err := simH.Run(dip, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append([]bool(nil), want...)
		agree, disagree := 0, 0
		for k := range alive {
			if !alive[k] {
				continue
			}
			got, err := simL.Run(dip, netlist.PatternFromUint(uint64(k), nk))
			if err != nil {
				t.Fatal(err)
			}
			same := true
			for o := range got {
				if got[o] != want[o] {
					same = false
					break
				}
			}
			if same {
				agree++
			} else {
				disagree++
				alive[k] = false
			}
		}
		if agree == 0 || disagree == 0 {
			t.Fatalf("DIP %d distinguishes nothing among the surviving keys (%d agree, %d disagree)", d, agree, disagree)
		}
	}
}

// TestEngineLegacyDifferential holds the engine-backed SAT attack to
// references that share no code with internal/engine, across every
// registered scheme:
//
//   - SAT-resistant schemes (Anti-SAT, SARLock, CAS, M-CAS) never run
//     out of DIPs within the cap, so the iteration count and the oracle
//     queries must equal the cap exactly. Where the key space is small
//     enough to enumerate, every queried DIP must split the keys that
//     survived the earlier DIPs, checked by simulating every key.
//
//   - Completing schemes (RLL, SLL, SFLL-HD) terminate when the miter
//     goes UNSAT. At that point the satisfying keys are exactly the
//     functionally correct keys, and the attack extracts the
//     lexicographically smallest. Brute-force simulation of every key
//     over every input yields the correct-key set independently; the
//     recovered key must be its minimum, and the plain-encoder miter
//     must prove it. (These RLL/SLL instances admit several functional
//     keys, so golden-key comparison would be wrong here.)
//
// The attack must also encode the miter exactly once per run.
func TestEngineLegacyDifferential(t *testing.T) {
	h, err := synth.Generate(synth.Config{Name: "dh", Inputs: 12, Outputs: 3, Gates: 60, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	// Schemes that run out of DIPs within completeCap on this host; the
	// rest are SAT-resistant and must saturate cappedCap.
	completing := map[string]bool{"rll": true, "sll": true, "sfll": true}
	const cappedCap = 24
	const completeCap = 96
	for _, sch := range lock.Schemes() {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			locked, _, err := sch.Apply(h.Clone(), 7)
			if err != nil {
				t.Fatal(err)
			}
			cap := cappedCap
			if completing[sch.Name] {
				cap = completeCap
			}
			tel := telemetry.New()
			orc := &recordingOracle{Oracle: oracle.MustNewSim(h)}
			res, err := Run(locked.Circuit, orc, Options{MaxIterations: cap, Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != completing[sch.Name] {
				t.Fatalf("completed = %v within %d iterations, want %v", res.Completed, cap, completing[sch.Name])
			}
			if completing[sch.Name] {
				min := newTruth(t, locked.Circuit, h).lexMinCorrect(t, locked.Circuit.NumKeys())
				for i := range min {
					if res.Key[i] != min[i] {
						t.Fatalf("key bit %d: attack %v, brute-force lex-min %v", i, res.Key[i], min[i])
					}
				}
				ok, err := miter.ProveUnlocked(locked.Circuit, res.Key, h)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatal("plain-encoder miter refutes the recovered key")
				}
			} else {
				if res.Iterations != cap || len(orc.queries) != cap {
					t.Fatalf("iterations %d, oracle queries %d, want both %d", res.Iterations, len(orc.queries), cap)
				}
			}
			if locked.Circuit.NumKeys() <= 12 {
				checkDIPSequence(t, locked.Circuit, h, orc.queries)
			}
			if got := tel.Counter("engine_encodings_total").Value(); got != 1 {
				t.Fatalf("engine_encodings_total = %d, want 1", got)
			}
		})
	}
}
