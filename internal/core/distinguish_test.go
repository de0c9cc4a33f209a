package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/sat"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// complementKey returns key with every bit flipped.
func complementKey(key []bool) []bool {
	out := make([]bool, len(key))
	for i, b := range key {
		out[i] = !b
	}
	return out
}

// TestDistinguishUnknownObservable pins the starved-verdict report on a
// simulation-regime instance (the Table-I c432 row): with a one-conflict
// budget, distinguish passes the keyed miter's verdict through, and
// every Unknown comes without a witness, is counted once in
// engine_distinguish_unknown_total, publishes one distinguish event in
// the open phase and logs one line; definitive verdicts report nothing.
func TestDistinguishUnknownObservable(t *testing.T) {
	locked, _, _ := tableIRowInstance(t)
	c := locked.Circuit
	reg := telemetry.New()
	bus := events.New(events.Options{})
	logged := 0
	a := &attack{
		opts: Options{Locked: c, Log: func(string, ...any) { logged++ }},
		env:  &engine.Env{Ctx: context.Background(), Tel: reg, Bus: bus, Phase: "verify"},
	}
	rng := rand.New(rand.NewSource(53))
	random := func() []bool {
		k := make([]bool, c.NumKeys())
		for i := range k {
			k[i] = rng.Intn(2) == 1
		}
		return k
	}
	pairs := [][2][]bool{{locked.Key, complementKey(locked.Key)}}
	for i := 0; i < 4; i++ {
		r := random()
		pairs = append(pairs, [2][]bool{r, complementKey(r)}, [2][]bool{locked.Key, random()})
	}
	var unknowns, definitive uint64
	for i, p := range pairs {
		want, _, err := miter.DistinguishKeys(c, p[0], p[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		got, w, err := a.distinguish(p[0], p[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pair %d: distinguish says %v, the prover %v", i, got, want)
		}
		if (w != nil) != (want == sat.Sat) {
			t.Fatalf("pair %d: verdict %v with witness=%v", i, got, w != nil)
		}
		if want == sat.Unknown {
			unknowns++
		} else {
			definitive++
		}
	}
	if unknowns == 0 || definitive == 0 {
		t.Fatalf("%d Unknown and %d definitive verdicts under a one-conflict budget, want both", unknowns, definitive)
	}
	if got := reg.Snapshot().Counters["engine_distinguish_unknown_total"]; got != unknowns {
		t.Errorf("engine_distinguish_unknown_total = %d, want %d", got, unknowns)
	}
	var published uint64
	for _, ev := range bus.History(0) {
		if ev.Type != events.TypeDistinguish {
			continue
		}
		published++
		if ev.Phase != "verify" || ev.Fields["reason"] != "unknown_budget" || ev.Fields["budget"] != "1" {
			t.Errorf("distinguish event phase=%q fields=%v, want phase verify, reason unknown_budget, budget 1", ev.Phase, ev.Fields)
		}
	}
	if published != unknowns || uint64(logged) != unknowns {
		t.Errorf("%d distinguish events and %d log lines for %d Unknown verdicts", published, logged, unknowns)
	}
}

// TestJointComplementPairUnlocks pins the premise that lets the
// verifier build one candidate per joint-complement class: for a
// correct key split into the active block's polarity s and the
// calibration block's c, both buildKey(active, s, c) and its joint
// complement buildKey(active, ¬s, ¬c) unlock the circuit, while
// complementing only one block does not.
// Correctness is exhaustive simulation against the host, on registry
// CAS and M-CAS instances (M-CAS after SPS removal of the outer
// instance, as RunMCAS attacks it) under both Lemma-1 hypotheses.
func TestJointComplementPairUnlocks(t *testing.T) {
	checked := 0
	for _, s := range lock.Schemes() {
		if s.Name != "cas" && !s.MCAS {
			continue
		}
		for seed := int64(1); seed <= 4; seed++ {
			label := fmt.Sprintf("%s/seed%d", s.Name, seed)
			rng := rand.New(rand.NewSource(seed))
			h, err := synth.Generate(synth.Config{Name: "h", Inputs: s.MinHostInputs + rng.Intn(3),
				Outputs: 1 + rng.Intn(3), Gates: 30 + rng.Intn(30), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			l, _, err := s.Apply(h, seed+1)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			c, key := l.Circuit, l.Key
			if s.MCAS {
				removal, err := spsRemove(c, Options{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				c = removal.Circuit
				key = make([]bool, c.NumKeys())
				for i, orig := range removal.SurvivingKeys {
					key[i] = l.Key[orig]
				}
			}
			layout, err := DiscoverLayout(c)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			n := layout.N()
			if n > 12 {
				t.Fatalf("%s: block width %d, want ≤ 12", label, n)
			}
			if !exhaustivelyUnlocks(t, c, key, h) {
				t.Fatalf("%s: the issued key does not unlock the circuit", label)
			}
			a := &attack{opts: Options{Locked: c}, layout: layout}
			mask := blockMask(n)
			for _, active := range []int{1, 2} {
				var k1, k2 uint64
				for i := 0; i < n; i++ {
					if key[layout.Key1Pos[i]] {
						k1 |= 1 << uint(i)
					}
					if key[layout.Key2Pos[i]] {
						k2 |= 1 << uint(i)
					}
				}
				sPol, cPol := k1, k2
				if active == 2 {
					sPol, cPol = k2, ^k1&mask
				}
				if got := a.buildKey(active, sPol, cPol); !slices.Equal(got, key) {
					t.Fatalf("%s/active%d: buildKey(s, c) does not rebuild the key", label, active)
				}
				for _, tc := range []struct {
					name   string
					s, c   uint64
					unlock bool
				}{
					{"joint complement", ^sPol & mask, ^cPol & mask, true},
					{"active block complemented", ^sPol & mask, cPol, false},
					{"calibration block complemented", sPol, ^cPol & mask, false},
				} {
					if got := exhaustivelyUnlocks(t, c, a.buildKey(active, tc.s, tc.c), h); got != tc.unlock {
						t.Errorf("%s/active%d: %s unlocks=%v, want %v", label, active, tc.name, got, tc.unlock)
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no CAS or M-CAS scheme in the registry")
	}
}
