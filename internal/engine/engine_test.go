package engine

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

func lockedInstance(t *testing.T, inputs int, chain string, seed int64) *netlist.Circuit {
	t.Helper()
	h, err := synth.Generate(synth.Config{Name: "h", Inputs: inputs, Outputs: 3, Gates: 50, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain(chain), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return locked.Circuit
}

func randomKey(rng *rand.Rand, n int) []bool {
	k := make([]bool, n)
	for i := range k {
		k[i] = rng.Intn(2) == 1
	}
	return k
}

// bruteDIPs enumerates the disagreement patterns over all primary inputs
// by direct evaluation — the ground truth EnumerateDIPs must match when
// the block covers every input.
func bruteDIPs(t *testing.T, c *netlist.Circuit, keyA, keyB []bool) map[uint64]bool {
	t.Helper()
	nIn := c.NumInputs()
	out := make(map[uint64]bool)
	in := make([]bool, nIn)
	for pat := uint64(0); pat < uint64(1)<<uint(nIn); pat++ {
		for i := range in {
			in[i] = pat&(1<<uint(i)) != 0
		}
		a, err := c.Eval(in, keyA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Eval(in, keyB)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				out[pat] = true
				break
			}
		}
	}
	return out
}

func allInputs(c *netlist.Circuit) []int {
	pos := make([]int, c.NumInputs())
	for i := range pos {
		pos[i] = i
	}
	return pos
}

func collect(t *testing.T, e *Engine, keyA, keyB []bool) map[uint64]bool {
	t.Helper()
	got := make(map[uint64]bool)
	err := e.EnumerateDIPs(keyA, keyB, func(pat uint64) bool {
		if got[pat] {
			t.Fatalf("duplicate pattern %b", pat)
		}
		got[pat] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestEnumerateMatchesBruteForce checks assumption-driven enumeration on
// the persistent miter against exhaustive evaluation, across several
// key pairs ON THE SAME ENGINE — so every session after the first runs
// on a solver carrying the previous sessions' learned clauses and
// retired blocking scopes, which is exactly the state the refactor must
// prove harmless.
func TestEnumerateMatchesBruteForce(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	eng, err := New(locked, allInputs(locked), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	nk := locked.NumKeys()
	for trial := 0; trial < 12; trial++ {
		keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
		want := bruteDIPs(t, locked, keyA, keyB)
		got := collect(t, eng, keyA, keyB)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d DIPs, want %d", trial, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("trial %d: missing DIP %b", trial, p)
			}
		}
	}
	if eng.Stats().BlockingRetired != eng.Stats().BlockingPushed {
		t.Fatal("sessions left an open blocking scope")
	}
}

// TestScopesIndependent re-runs the same assignment after other
// assignments have been enumerated in between: the result must be
// identical, proving retired scopes do not leak into later sessions.
func TestScopesIndependent(t *testing.T) {
	locked := lockedInstance(t, 6, "A-O-2A", 3)
	eng, err := New(locked, allInputs(locked), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	nk := locked.NumKeys()
	keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
	first := collect(t, eng, keyA, keyB)
	for i := 0; i < 3; i++ {
		collect(t, eng, randomKey(rng, nk), randomKey(rng, nk))
	}
	again := collect(t, eng, keyA, keyB)
	if len(first) != len(again) {
		t.Fatalf("re-enumeration size %d, want %d", len(again), len(first))
	}
	for p := range first {
		if !again[p] {
			t.Fatalf("re-enumeration lost pattern %b", p)
		}
	}
}

// TestEnumerateDIPsSeeded checks the checkpoint-resume path against
// brute force: with half of the true DIP set replayed as seeds, no
// seeded pattern is re-visited and the solver finds exactly the rest.
// All trials share one engine, so each seeded session also runs on the
// learned clauses and retired scopes of the sessions before it.
func TestEnumerateDIPsSeeded(t *testing.T) {
	locked := lockedInstance(t, 6, "A-O-2A", 3)
	eng, err := New(locked, allInputs(locked), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	nk := locked.NumKeys()
	seededTrials := 0
	for trial := 0; trial < 6; trial++ {
		keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
		want := bruteDIPs(t, locked, keyA, keyB)
		if len(want) < 2 {
			continue
		}
		seededTrials++
		seeded := make(map[uint64]bool)
		for p := range want {
			if len(seeded) >= len(want)/2 {
				break
			}
			seeded[p] = true
		}
		seedFn := func(yield func(pat uint64) bool) {
			for p := range seeded {
				if !yield(p) {
					return
				}
			}
		}
		got := make(map[uint64]bool)
		err := eng.EnumerateDIPsSeeded(keyA, keyB, seedFn, func(pat uint64) bool {
			if seeded[pat] {
				t.Fatalf("trial %d: seeded pattern %b re-visited", trial, pat)
			}
			if got[pat] {
				t.Fatalf("trial %d: duplicate pattern %b", trial, pat)
			}
			got[pat] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got)+len(seeded) != len(want) {
			t.Fatalf("trial %d: %d found + %d seeded != %d true DIPs", trial, len(got), len(seeded), len(want))
		}
		for p := range got {
			if !want[p] {
				t.Fatalf("trial %d: %b is not a DIP", trial, p)
			}
		}
	}
	if seededTrials == 0 {
		t.Fatal("no trial had enough DIPs to seed")
	}
}

// TestPhaseAttribution checks the engine_phase_solves_total counters:
// work is labelled with the environment's phase as it changes, the
// per-phase solve counts sum to the solver totals, and the engine_*
// counter families land in the registry.
func TestPhaseAttribution(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	env := &Env{Tel: telemetry.New()}
	eng, err := New(locked, allInputs(locked), env)
	if err != nil {
		t.Fatal(err)
	}
	reg := env.Tel
	rng := rand.New(rand.NewSource(23))
	nk := locked.NumKeys()
	env.Phase = "enumerate"
	collect(t, eng, randomKey(rng, nk), randomKey(rng, nk))
	env.Phase = "verify"
	collect(t, eng, randomKey(rng, nk), randomKey(rng, nk))
	snap := reg.Snapshot()
	solves := make(map[string]uint64)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "engine_phase_solves_total{") {
			solves[name] = v
		}
	}
	if len(solves) != 2 {
		t.Fatalf("phases recorded: %v", solves)
	}
	var solveSum uint64
	for _, phase := range []string{"enumerate", "verify"} {
		n := solves[telemetry.Label("engine_phase_solves_total", "phase", phase)]
		if n == 0 {
			t.Fatalf("phase %s recorded no solve calls: %v", phase, solves)
		}
		solveSum += n
	}
	if total := eng.Stats().SolveCalls; solveSum != total {
		t.Fatalf("phase solve calls sum to %d, solver says %d", solveSum, total)
	}
	if snap.Counters["engine_assumption_solves_total"] != eng.Stats().SolveCalls {
		t.Fatalf("engine_assumption_solves_total = %d, want %d",
			snap.Counters["engine_assumption_solves_total"], eng.Stats().SolveCalls)
	}
	if snap.Counters["engine_encodings_total"] != 1 {
		t.Fatalf("engine_encodings_total = %d, want 1", snap.Counters["engine_encodings_total"])
	}
	if snap.Counters["engine_encodings_avoided_total"] == 0 {
		t.Fatal("engine_encodings_avoided_total never incremented across sessions")
	}
	if snap.Counters["sat_solve_calls_total"] != eng.Stats().SolveCalls {
		t.Fatal("sat_* continuity broken: solve calls not folded in")
	}
	found := false
	for _, sp := range snap.Spans {
		if sp.Name == "engine_enumerate" && sp.Lane == telemetry.EngineLane {
			found = true
		}
	}
	if !found {
		t.Fatal("no engine_enumerate span on the engine lane")
	}
}

// TestEnumerateCancelled checks every engine entry point against a
// context cancelled before the call: each returns the context's error,
// and the solver, which checks the context before its first search,
// spends no conflicts.
func TestEnumerateCancelled(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	nk := locked.NumKeys()
	rng := rand.New(rand.NewSource(31))
	keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
	for _, tc := range []struct {
		name string
		run  func(*Engine) error
	}{
		{"EnumerateDIPs", func(e *Engine) error {
			return e.EnumerateDIPs(keyA, keyB, func(uint64) bool { return true })
		}},
		{"EnumerateWitnesses", func(e *Engine) error {
			return e.EnumerateWitnesses(keyA, keyB, func([]bool) bool { return true })
		}},
		{"EnumerateSensitizations", func(e *Engine) error {
			return e.EnumerateSensitizations(0, func([]bool) bool { return true })
		}},
		{"Session.FindDIP", func(e *Engine) error {
			s, err := e.OpenSession()
			if err != nil {
				return err
			}
			defer s.Close()
			_, _, err = s.FindDIP()
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			eng, err := New(locked, allInputs(locked), &Env{Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(eng); !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
			if c := eng.Stats().Conflicts; c != 0 {
				t.Fatalf("cancelled call spent %d conflicts, want 0", c)
			}
		})
	}
}

// TestCompactBytesTrigger covers the bytes-based Simplify trigger: the
// default threshold leaves a small formula's retired scopes alone, a
// tiny override compacts after the first retired blocking clause, and
// the clause-DB gauges track the observed database size.
func TestCompactBytesTrigger(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	tel := telemetry.New()
	eng, err := New(locked, allInputs(locked), &Env{Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	nk := locked.NumKeys()
	run := func() {
		t.Helper()
		for trial := 0; trial < 4; trial++ {
			collect(t, eng, randomKey(rng, nk), randomKey(rng, nk))
		}
	}

	run()
	if got := tel.Counter("engine_simplify_runs_total").Value(); got != 0 {
		t.Fatalf("default threshold compacted a tiny formula (%d runs)", got)
	}
	db := tel.Gauge("sat_clause_db_bytes").Value()
	hwm := tel.Gauge("sat_clause_db_bytes_hwm").Value()
	if db <= 0 || hwm < db {
		t.Fatalf("clause-DB gauges incoherent: current=%d hwm=%d", db, hwm)
	}

	eng.SetCompactBytes(1)
	run()
	if got := tel.Counter("engine_simplify_runs_total").Value(); got == 0 {
		t.Fatal("1-byte threshold never triggered Simplify")
	}

	// Correctness after forced compaction: enumeration still matches
	// brute force on a fresh assignment.
	keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
	want := bruteDIPs(t, locked, keyA, keyB)
	got := collect(t, eng, keyA, keyB)
	if len(got) != len(want) {
		t.Fatalf("post-compaction enumeration found %d DIPs, want %d", len(got), len(want))
	}

	eng.SetCompactBytes(0) // ignored
	if eng.compactBytes != 1 {
		t.Fatal("SetCompactBytes(0) was not ignored")
	}
}
