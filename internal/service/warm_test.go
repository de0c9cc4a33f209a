package service

import (
	"testing"
)

// checkJobKey fetches a finished job's recovered key and asserts it
// unlocks the fixture's instance (correct keys are unique only up to
// the inherent joint complement, so exact-bit comparison is wrong).
func checkJobKey(t *testing.T, s *Service, j *Job, f fixture, label string) {
	t.Helper()
	_, res, finished, err := s.Outcome(j.ID())
	if err != nil || !finished || res == nil {
		t.Fatalf("%s outcome: finished=%t res=%v err=%v", label, finished, res, err)
	}
	bits := make([]bool, len(res.Key))
	for i, c := range res.Key {
		bits[i] = c == '1'
	}
	if !f.inst.IsCorrectCASKey(bits) {
		t.Fatalf("%s: recovered key %s is not correct for the instance", label, res.Key)
	}
}

// TestWarmEnginePoolReuse runs two jobs over the same netlists (the
// seeds differ, so the result cache cannot answer the second) against a
// warm-engine service and checks the second adopts the first's parked
// engine: one pool miss, then one pool hit, with both keys correct and
// identical.
func TestWarmEnginePoolReuse(t *testing.T) {
	f := makeFixture(t, 8, 4, 1)
	s, reg := newTestService(t, Config{Workers: 1, WarmEngines: 4})
	req := AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 7, SATWidthLimit: 12}

	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitJob(t, j1)
	if st1.State != StateDone {
		t.Fatalf("job 1: state %s, error %q", st1.State, st1.Error)
	}
	checkJobKey(t, s, j1, f, "job 1")
	snap := reg.Snapshot()
	if snap.Counters["engine_pool_misses_total"] != 1 || snap.Counters["engine_pool_hits_total"] != 0 {
		t.Fatalf("after job 1: misses %d / hits %d, want 1/0",
			snap.Counters["engine_pool_misses_total"], snap.Counters["engine_pool_hits_total"])
	}
	if s.warm.Len() != 1 {
		t.Fatalf("pool holds %d engines after job 1, want 1", s.warm.Len())
	}

	req.Seed = 8 // different cache hash, same warm-pool key
	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, j2)
	if st2.State != StateDone {
		t.Fatalf("job 2: state %s, error %q", st2.State, st2.Error)
	}
	checkJobKey(t, s, j2, f, "job 2")
	snap = reg.Snapshot()
	if snap.Counters["engine_pool_hits_total"] != 1 {
		t.Fatalf("after job 2: hits %d, want 1 (warm engine not adopted)", snap.Counters["engine_pool_hits_total"])
	}
	if s.warm.Len() != 1 {
		t.Fatalf("pool holds %d engines after job 2, want 1 (parked back)", s.warm.Len())
	}

	// A job over distinct netlists must get fresh members, not someone
	// else's warm backend.
	f2 := makeFixture(t, 9, 4, 2)
	j3, err := s.Submit(AttackRequest{Locked: f2.locked, Oracle: f2.orig, Seed: 7, SATWidthLimit: 12})
	if err != nil {
		t.Fatal(err)
	}
	st3 := waitJob(t, j3)
	if st3.State != StateDone {
		t.Fatalf("job 3: state %s, error %q", st3.State, st3.Error)
	}
	checkJobKey(t, s, j3, f2, "job 3")
	snap = reg.Snapshot()
	if snap.Counters["engine_pool_hits_total"] != 1 || snap.Counters["engine_pool_misses_total"] != 2 {
		t.Fatalf("after job 3: hits %d / misses %d, want 1/2 (distinct netlists must miss)",
			snap.Counters["engine_pool_hits_total"], snap.Counters["engine_pool_misses_total"])
	}
}

// TestWarmKeyOracleIsolation pins the pool-key scope directly: the same
// locked netlist under a different oracle, or under the MCAS pipeline,
// must never share pool entries. The oracle clause is the regression
// the warm pool shipped with — the engine's state only depends on the
// locked circuit, but jobs against distinct oracles stay on fresh
// engines by design.
func TestWarmKeyOracleIsolation(t *testing.T) {
	f := makeFixture(t, 8, 4, 1)
	f2 := makeFixture(t, 8, 4, 5) // same arity: its oracle is admissible for f.locked
	s, _ := newTestService(t, Config{Workers: 1, WarmEngines: 4})

	parse := func(req AttackRequest) *execution {
		t.Helper()
		p, err := s.validate(req)
		if err != nil {
			t.Fatal(err)
		}
		return &execution{parsed: p}
	}
	base := parse(AttackRequest{Locked: f.locked, Oracle: f.orig})
	sameAgain := parse(AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 99})
	otherOracle := parse(AttackRequest{Locked: f.locked, Oracle: f2.orig})
	mcas := parse(AttackRequest{Locked: f.locked, Oracle: f.orig, MCAS: true})

	k := warmKey(base)
	if k == "" {
		t.Fatal("warm key empty for a valid request")
	}
	if warmKey(sameAgain) != k {
		t.Fatal("seed changed the warm key: repeat jobs would never reuse warm backends")
	}
	if warmKey(otherOracle) == k {
		t.Fatal("distinct oracle produced the same warm key: jobs would share members across oracles")
	}
	if warmKey(mcas) == k {
		t.Fatal("MCAS flag not in the warm key: a stripped-circuit backend could serve a plain job")
	}
}
