package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// fixture is one locked/oracle bench-text pair with its ground truth.
type fixture struct {
	locked, orig string
	inst         *lock.CASInstance
	wantKey      string
}

func makeFixture(t *testing.T, inputs, n int, seed int64) fixture {
	t.Helper()
	host, err := synth.Generate(synth.Config{Name: "h", Inputs: inputs, Outputs: 3, Gates: 60, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	chain := make(lock.ChainConfig, n-1)
	for i := range chain {
		if (seed+int64(i))%2 == 0 {
			chain[i] = lock.ChainOr
		}
	}
	sel := make([]int, n)
	for i := range sel {
		sel[i] = (i*3 + int(seed)) % inputs
		// keep selections distinct
	}
	seen := map[int]bool{}
	next := 0
	for i, p := range sel {
		for seen[p] {
			p = next
			next++
		}
		seen[p] = true
		sel[i] = p
	}
	locked, inst, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, InputSel: sel, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	lockedText, err := bench.WriteString(locked.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	origText, err := bench.WriteString(host)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{locked: lockedText, orig: origText, inst: inst, wantKey: bitString(inst.CorrectKey)}
}

func newTestService(t *testing.T, cfg Config) (*Service, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New()
	cfg.Registry = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, reg
}

func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s did not finish: %v", j.ID(), err)
	}
	return *st
}

// TestHammerConcurrentSubmissions is the -race hammer: 32 concurrent
// submissions over 4 distinct problems. The cache plus singleflight
// must collapse the duplicates — the attack-run counter ends exactly at
// the number of distinct jobs — and every recovered key must be
// bit-identical to what a direct core.Run on the same inputs yields.
func TestHammerConcurrentSubmissions(t *testing.T) {
	fixtures := []fixture{
		makeFixture(t, 8, 4, 1),
		makeFixture(t, 9, 4, 2),
		makeFixture(t, 8, 5, 3),
		makeFixture(t, 10, 5, 4),
	}
	// Ground truth: run the attack directly through core for each fixture.
	direct := make([]string, len(fixtures))
	for i, f := range fixtures {
		locked, err := bench.ReadString("locked", f.locked)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := bench.ReadString("orig", f.orig)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := oracle.NewSim(orig)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(core.Options{Locked: locked, Oracle: sim, Seed: 7})
		if err != nil {
			t.Fatalf("direct run %d: %v", i, err)
		}
		direct[i] = bitString(res.Key)
	}

	s, reg := newTestService(t, Config{Workers: 4, QueueDepth: 64})
	const submitters = 32
	var wg sync.WaitGroup
	jobs := make([]*Job, submitters)
	errs := make([]error, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := fixtures[i%len(fixtures)]
			jobs[i], errs[i] = s.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 7})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i, j := range jobs {
		st := waitJob(t, j)
		if st.State != StateDone {
			t.Fatalf("job %d (%s): state %s, error %q", i, j.ID(), st.State, st.Error)
		}
		_, res, finished, err := s.Outcome(j.ID())
		if err != nil || !finished || res == nil {
			t.Fatalf("job %d outcome: finished=%t res=%v err=%v", i, finished, res, err)
		}
		f := fixtures[i%len(fixtures)]
		if res.Key != direct[i%len(fixtures)] {
			t.Errorf("job %d: key %s differs from direct core run %s", i, res.Key, direct[i%len(fixtures)])
		}
		keyBits := make([]bool, len(res.Key))
		for k, c := range res.Key {
			keyBits[k] = c == '1'
		}
		if !f.inst.IsCorrectCASKey(keyBits) {
			t.Errorf("job %d: recovered key %s is not correct for the instance", i, res.Key)
		}
	}
	if runs := reg.Counter("service_attack_runs_total").Value(); runs != uint64(len(fixtures)) {
		t.Errorf("attack ran %d times for %d distinct problems (dedup failed)", runs, len(fixtures))
	}
	wantShared := uint64(submitters - len(fixtures))
	if hits := reg.Counter("service_cache_hits_total").Value() +
		reg.Counter("service_singleflight_joins_total").Value(); hits != wantShared {
		t.Errorf("cache hits + singleflight joins = %d, want %d", hits, wantShared)
	}
}

// TestResubmitUsesCacheZeroQueries is the acceptance criterion:
// resubmitting a byte-identical job must come back from the cache with
// zero additional oracle queries and zero additional attack runs, and
// the cached key must still be the ground-truth key.
func TestResubmitUsesCacheZeroQueries(t *testing.T) {
	f := makeFixture(t, 8, 4, 11)
	s, reg := newTestService(t, Config{Workers: 1})
	req := AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 3}
	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st.State != StateDone {
		t.Fatalf("first run: %s (%s)", st.State, st.Error)
	}
	runsBefore := reg.Counter("service_attack_runs_total").Value()
	queriesBefore := reg.Counter("service_oracle_queries_total").Value()

	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, j2)
	if !st2.Cached {
		t.Fatal("resubmission was not served from the cache")
	}
	if st2.State != StateDone {
		t.Fatalf("cached job state %s", st2.State)
	}
	if runs := reg.Counter("service_attack_runs_total").Value(); runs != runsBefore {
		t.Errorf("resubmission ran the attack again (%d → %d runs)", runsBefore, runs)
	}
	if q := reg.Counter("service_oracle_queries_total").Value(); q != queriesBefore {
		t.Errorf("resubmission spent %d additional oracle queries", q-queriesBefore)
	}
	_, res, finished, err := s.Outcome(j2.ID())
	if err != nil || !finished {
		t.Fatalf("cached outcome: %v", err)
	}
	keyBits := make([]bool, len(res.Key))
	for i, c := range res.Key {
		keyBits[i] = c == '1'
	}
	if !f.inst.IsCorrectCASKey(keyBits) {
		t.Fatalf("cached key %s is not a correct key", res.Key)
	}
	// The two jobs share the content address, and the trace served for
	// the cached job is the sealed trace of the original execution.
	if j1.Hash() != j2.Hash() {
		t.Fatalf("hashes differ: %s vs %s", j1.Hash(), j2.Hash())
	}
	tr, err := s.Trace(j2.ID())
	if err != nil || len(tr) == 0 {
		t.Fatalf("cached job trace: %v (%d bytes)", err, len(tr))
	}
	if !strings.Contains(string(tr), "attack") {
		t.Fatalf("cached trace has no attack span: %s", tr)
	}
}

// TestCancelMidRunYieldsPartial drives the DELETE path: the job is
// held at the worker's beforeRun seam until the cancel lands, so the
// attack starts with an already-cancelled context and winds down into
// the canceled/partial family of terminal states rather than "done".
func TestCancelMidRunYieldsPartial(t *testing.T) {
	f := makeFixture(t, 8, 4, 21)
	s, _ := newTestService(t, Config{Workers: 1})
	started := make(chan struct{})
	s.beforeRun = func(ctx context.Context, _ string) error {
		close(started)
		<-ctx.Done()
		// Hand the cancelled context to the attack: core.Run surfaces the
		// interruption as a PartialError at its first checkpoint.
		return nil
	}
	j, err := s.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	st, err := s.Cancel(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !st.CancelRequested {
		t.Fatal("cancel not recorded on the job")
	}
	final := waitJob(t, j)
	if final.State != StatePartial && final.State != StateCanceled {
		t.Fatalf("cancelled job ended %s, want partial or canceled", final.State)
	}
	if final.State == StatePartial {
		if final.Partial == nil || final.Partial.Stage == "" {
			t.Fatalf("partial outcome has no stage: %+v", final.Partial)
		}
	}
	// Cancelled outcomes must not poison the cache: a resubmission runs
	// fresh and succeeds.
	s.beforeRun = nil
	j2, err := s.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig})
	if err != nil {
		t.Fatal(err)
	}
	if st2 := waitJob(t, j2); st2.State != StateDone {
		t.Fatalf("post-cancel resubmission: %s (%s)", st2.State, st2.Error)
	}
}

// TestWorkerPanicBecomesJobError: a panic on the worker goroutine (here
// injected through the beforeRun seam) must surface as a typed
// KindPanic failure on the job, not kill the daemon.
func TestWorkerPanicBecomesJobError(t *testing.T) {
	f := makeFixture(t, 8, 4, 31)
	s, reg := newTestService(t, Config{Workers: 1})
	s.beforeRun = func(context.Context, string) error {
		panic("injected worker fault")
	}
	j, err := s.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateFailed || st.ErrorKind != KindPanic {
		t.Fatalf("state %s kind %s, want failed/panic", st.State, st.ErrorKind)
	}
	if reg.Counter("service_worker_panics_total").Value() == 0 {
		t.Error("panic counter not incremented")
	}
	// The daemon survives: the same service still completes real work.
	s.beforeRun = nil
	j2, err := s.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig})
	if err != nil {
		t.Fatal(err)
	}
	if st2 := waitJob(t, j2); st2.State != StateDone {
		t.Fatalf("post-panic job: %s (%s)", st2.State, st2.Error)
	}
}

// TestAdmissionValidation exercises the boundary checks of satellite 3:
// garbage netlists, arity mismatches, keyed oracles and out-of-range
// block widths are all rejected before anything is queued.
func TestAdmissionValidation(t *testing.T) {
	f := makeFixture(t, 8, 4, 41)
	s, _ := newTestService(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  AttackRequest
		want ErrorKind
	}{
		{"empty", AttackRequest{}, KindInvalid},
		{"garbage locked", AttackRequest{Locked: "not a bench file (", Oracle: f.orig}, KindInvalid},
		{"oracle with keys", AttackRequest{Locked: f.locked, Oracle: f.locked}, KindInvalid},
		{"unlocked locked", AttackRequest{Locked: f.orig, Oracle: f.orig}, KindInvalid},
		{"negative sat width limit", AttackRequest{Locked: f.locked, Oracle: f.orig, SATWidthLimit: -1}, KindInvalid},
		{"unknown attack", AttackRequest{Locked: f.locked, Oracle: f.orig, Attack: "frobnicate"}, KindInvalid},
		{"registered but non-servable attack", AttackRequest{Locked: f.locked, Oracle: f.orig, Attack: "sat"}, KindInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Submit(tc.req)
			var je *JobError
			if !errors.As(err, &je) || je.Kind != tc.want {
				t.Fatalf("got %v, want kind %s", err, tc.want)
			}
		})
	}
	t.Run("width over service limit", func(t *testing.T) {
		narrow, _ := newTestService(t, Config{Workers: 1, MaxBlockWidth: 3})
		_, err := narrow.Submit(AttackRequest{Locked: f.locked, Oracle: f.orig})
		var je *JobError
		if !errors.As(err, &je) || je.Kind != KindInvalid {
			t.Fatalf("got %v, want invalid", err)
		}
		if !errors.Is(err, core.ErrBlockWidth) {
			t.Fatalf("width rejection does not wrap core.ErrBlockWidth: %v", err)
		}
	})
}

// TestQueueFullRejects fills the single-slot queue behind a blocked
// worker and checks that the next distinct submission is turned away
// with KindQueueFull (HTTP 429 at the API layer).
func TestQueueFullRejects(t *testing.T) {
	fixtures := []fixture{
		makeFixture(t, 8, 4, 51),
		makeFixture(t, 9, 4, 52),
		makeFixture(t, 10, 4, 53),
	}
	s, _ := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	var hold sync.Once
	s.beforeRun = func(ctx context.Context, _ string) error {
		hold.Do(func() { <-release })
		return nil
	}
	defer close(release)
	// First job occupies the worker, second fills the queue.
	j1, err := s.Submit(AttackRequest{Locked: fixtures[0].locked, Oracle: fixtures[0].orig})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, j1.ID())
	if _, err := s.Submit(AttackRequest{Locked: fixtures[1].locked, Oracle: fixtures[1].orig}); err != nil {
		t.Fatalf("queue slot submit: %v", err)
	}
	_, err = s.Submit(AttackRequest{Locked: fixtures[2].locked, Oracle: fixtures[2].orig})
	var je *JobError
	if !errors.As(err, &je) || je.Kind != KindQueueFull {
		t.Fatalf("overflow submit: got %v, want queue_full", err)
	}
	// A duplicate of an admitted job still joins despite the full queue.
	dup, err := s.Submit(AttackRequest{Locked: fixtures[1].locked, Oracle: fixtures[1].orig})
	if err != nil {
		t.Fatalf("duplicate join during full queue: %v", err)
	}
	if dup.Hash() == "" {
		t.Fatal("dup job has no hash")
	}
}

func waitRunning(t *testing.T, s *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning || st.State.Terminal() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// TestHashExcludesBudgetKnobs: Workers and TimeoutMS are execution
// budget, not problem identity — two requests differing only there must
// share a content address, while any attack-semantics change must not.
func TestHashExcludesBudgetKnobs(t *testing.T) {
	f := makeFixture(t, 8, 4, 61)
	s, _ := newTestService(t, Config{Workers: 1})
	base := AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 5}
	h := func(req AttackRequest) string {
		p, err := s.validate(req)
		if err != nil {
			t.Fatal(err)
		}
		return hashRequest(p)
	}
	want := h(base)
	budget := base
	budget.Workers = 7
	budget.TimeoutMS = 12345
	if h(budget) != want {
		t.Error("budget knobs changed the content address")
	}
	seeded := base
	seeded.Seed = 6
	if h(seeded) == want {
		t.Error("seed change did not change the content address")
	}
	// Attack-name spellings normalize: "", "dip" and the display label
	// are the same job and must share one cache entry.
	for _, spelling := range []string{"dip", "DIP-learning"} {
		named := base
		named.Attack = spelling
		if h(named) != want {
			t.Errorf("attack spelling %q changed the content address", spelling)
		}
	}
}

// TestAutoCalibrationCacheKey pins the content-address contract of the
// SAT/sim regime rule: an unpinned request (SATWidthLimit = 0) is keyed
// on the requested value, never on which engine the rule picked — so a
// resubmission is a pure cache hit with no second attack run, while
// pinning a width is a different address.
func TestAutoCalibrationCacheKey(t *testing.T) {
	f := makeFixture(t, 8, 4, 17)
	s, reg := newTestService(t, Config{Workers: 1})
	req := AttackRequest{Locked: f.locked, Oracle: f.orig, Seed: 5} // SATWidthLimit 0 = auto
	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st.State != StateDone {
		t.Fatalf("first auto-calibrated run: %s (%s)", st.State, st.Error)
	}
	runsBefore := reg.Counter("service_attack_runs_total").Value()

	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, j2)
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("auto-calibrated resubmission not served from cache: cached=%t state=%s",
			st2.Cached, st2.State)
	}
	if runs := reg.Counter("service_attack_runs_total").Value(); runs != runsBefore {
		t.Errorf("resubmission re-ran the attack (%d → %d runs) — probe outcome leaked into the cache key", runsBefore, runs)
	}
	if j1.Hash() != j2.Hash() {
		t.Fatalf("auto-calibrated hashes differ: %s vs %s", j1.Hash(), j2.Hash())
	}

	pinned := req
	pinned.SATWidthLimit = 12
	j3, err := s.Submit(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j3); st.State != StateDone {
		t.Fatalf("pinned run: %s (%s)", st.State, st.Error)
	}
	if j3.Hash() == j1.Hash() {
		t.Error("pinned SATWidthLimit shares the auto-calibrated content address")
	}
}
