package sensitization

import (
	"testing"

	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// correctKeys enumerates every key under which locked matches host on
// every input pattern, by 64-lane simulation (feasible for |K| ≤ 12).
// A wrong key is usually rejected by its first batch.
func correctKeys(t *testing.T, locked, host *netlist.Circuit) [][]bool {
	t.Helper()
	nk, nIn := locked.NumKeys(), locked.NumInputs()
	if nk > 12 || nIn > 20 || nIn < 6 {
		t.Fatalf("brute force over %d key bits × %d inputs is out of range", nk, nIn)
	}
	simL := netlist.MustNewSimulator(locked)
	simH := netlist.MustNewSimulator(host)
	batches := make([][]uint64, 1<<uint(nIn-6))
	want := make([][]uint64, len(batches))
	for b := range batches {
		in := make([]uint64, nIn)
		for l := uint64(0); l < 64; l++ {
			p := uint64(b)*64 + l
			for i := range in {
				in[i] |= (p >> uint(i) & 1) << l
			}
		}
		out, err := simH.Run64(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		batches[b], want[b] = in, append([]uint64(nil), out...)
	}
	var keys [][]bool
	kw := make([]uint64, nk)
	for k := uint64(0); k < 1<<uint(nk); k++ {
		for i := range kw {
			kw[i] = -(k >> uint(i) & 1)
		}
		ok := true
		for b := 0; ok && b < len(batches); b++ {
			got, err := simL.Run64(batches[b], kw)
			if err != nil {
				t.Fatal(err)
			}
			for o := range got {
				ok = ok && got[o] == want[b][o]
			}
		}
		if ok {
			keys = append(keys, netlist.PatternFromUint(k, nk))
		}
	}
	return keys
}

// TestEngineLegacyDifferential holds the engine-backed attack (one
// persistent encoding streaming candidates for every key bit) to a
// reference that shares no code with internal/engine. The muting check
// makes every resolved bit sound: brute-force simulation of every key
// over every input finds the functionally correct keys, and each of
// them must carry every resolved bit's value. The attack must also leak
// RLL bits (aggregated over seeds), and one encoding must serve every
// key bit.
func TestEngineLegacyDifferential(t *testing.T) {
	sch, ok := lock.SchemeByName("rll")
	if !ok {
		t.Fatal("rll not registered")
	}
	total := 0
	for _, seed := range []int64{5, 6, 7, 8} {
		h, err := synth.Generate(synth.Config{Name: "sh", Inputs: 16, Outputs: 12, Gates: 90, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.TopoOrder(); err != nil {
			t.Fatal(err)
		}
		locked, _, err := sch.Apply(h.Clone(), seed)
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.New()
		res, err := Run(locked.Circuit, oracle.MustNewSim(h), Options{Seed: 1, CandidatesPerBit: 24, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		keys := correctKeys(t, locked.Circuit, h)
		if len(keys) == 0 {
			t.Fatalf("seed %d: brute force found no correct key", seed)
		}
		for _, key := range keys {
			for bit := range key {
				if res.Known[bit] && res.Key[bit] != key[bit] {
					t.Fatalf("seed %d bit %d resolved to %v, but a correct key has %v (muting check must keep reports sound)",
						seed, bit, res.Key[bit], key[bit])
				}
			}
		}
		total += res.Resolved
		if got := tel.Counter("engine_encodings_total").Value(); got != 1 {
			t.Fatalf("engine_encodings_total = %d, want 1 (one encoding for all %d bits)", got, len(locked.Key))
		}
	}
	if total == 0 {
		t.Fatal("resolved no RLL bits across seeds — test instances too weak")
	}
}
