package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/lock"
	"repro/internal/oracle"
)

func noSleep(time.Duration) {}

// TestAttackRecoversUnderNoise is the headline robustness property:
// with a per-output-bit flip rate of up to 1e-3 and a transient-failure
// rate of 0.3, the attack behind the resilient decorator (majority
// voting + retries) still recovers the exact key that a clean seed run
// recovers. The transient rate is sized to the attack's query stream (a
// handful of chip calls here) so that transients fire in both legs.
func TestAttackRecoversUnderNoise(t *testing.T) {
	for _, flipRate := range []float64{1e-4, 1e-3} {
		h := host(t, 8)
		locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{
			Chain: lock.MustParseChain("2A-O-2A"), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}

		clean, err := Run(Options{Locked: locked.Circuit, Oracle: oracle.MustNewSim(h), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}

		inj := faults.New(oracle.MustNewSim(h), faults.Config{
			FlipRate: flipRate, TransientRate: 0.3, Seed: 11,
		})
		res := oracle.NewResilient(inj, oracle.ResilientOptions{
			Votes: 5, Retries: 6, Seed: 11, Sleep: noSleep,
		})
		noisy, err := Run(Options{Locked: locked.Circuit, Oracle: res, Seed: 3})
		if err != nil {
			t.Fatalf("flip=%g: resilient attack failed: %v", flipRate, err)
		}
		if !inst.IsCorrectCASKey(noisy.Key) {
			t.Fatalf("flip=%g: resilient attack recovered a wrong key", flipRate)
		}
		for i := range clean.Key {
			if clean.Key[i] != noisy.Key[i] {
				t.Fatalf("flip=%g: noisy run recovered a different (even if correct) key at bit %d", flipRate, i)
			}
		}
		if inj.Transients() == 0 {
			t.Fatalf("flip=%g: transient rate 0.3 never fired across %d calls — test exercised nothing", flipRate, inj.Calls())
		}
		if flipRate >= 1e-3 && inj.Flips() == 0 {
			t.Fatalf("flip=%g: no bits were flipped across %d calls — test exercised nothing", flipRate, inj.Calls())
		}
	}
}

// TestNoisyAttackDeterministic re-runs the noisy attack with identical
// seeds and demands bit-identical outcomes: the fault stream is a pure
// function of (seed, pattern, occurrence), so the whole pipeline is
// reproducible.
func TestNoisyAttackDeterministic(t *testing.T) {
	h := host(t, 8)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{
		Chain: lock.MustParseChain("A-O-3A"), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		inj := faults.New(oracle.MustNewSim(h), faults.Config{
			FlipRate: 1e-3, TransientRate: 1e-2, Seed: 21,
		})
		res := oracle.NewResilient(inj, oracle.ResilientOptions{
			Votes: 3, Retries: 6, Seed: 21, Sleep: noSleep,
		})
		out, err := Run(Options{Locked: locked.Circuit, Oracle: res, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.TotalDIPs != b.TotalDIPs || a.AlignedDIPs != b.AlignedDIPs || a.Case != b.Case {
		t.Fatalf("noisy runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.Key {
		if a.Key[i] != b.Key[i] {
			t.Fatalf("noisy runs recovered different keys at bit %d", i)
		}
	}
}

// TestVotedAttackNeverEmitsWrongKey is the no-wrong-key property of the
// one noise defence, the decorator's majority vote: on the Table-I c432
// row at flip rate 1e-2 behind a 3-vote resilient oracle, every seed
// either recovers a correct key or fails with a typed error. No seed
// may return a wrong key.
func TestVotedAttackNeverEmitsWrongKey(t *testing.T) {
	locked, inst, h := tableIRowInstance(t)
	var recovered int
	var flips uint64
	for seed := int64(1); seed <= 8; seed++ {
		inj := faults.New(oracle.MustNewSim(h), faults.Config{FlipRate: 1e-2, Seed: seed})
		res := oracle.NewResilient(inj, oracle.ResilientOptions{Votes: 3, Seed: seed, Sleep: noSleep})
		out, err := Run(Options{Locked: locked.Circuit, Oracle: res, Seed: seed})
		flips += inj.Flips()
		if err != nil {
			if !errors.Is(err, ErrOracleInconsistent) && !errors.Is(err, ErrLemma2) && !errors.Is(err, ErrPartial) {
				t.Fatalf("seed %d: failure has no typed classification: %v", seed, err)
			}
			continue
		}
		if !inst.IsCorrectCASKey(out.Key) {
			t.Fatalf("seed %d: voted attack returned a WRONG key", seed)
		}
		recovered++
	}
	if flips == 0 {
		t.Fatal("flip rate 1e-2 never flipped a bit — test exercised nothing")
	}
	if recovered == 0 {
		t.Fatal("no seed recovered the key through the vote")
	}
}

// TestNaiveAttackFailsLoudlyUnderNoise pins down the diagnosis path:
// without any denoising, a flip-prone oracle must NOT yield a silently
// wrong key — the attack's consistency checks have to convert the
// corruption into a typed failure (oracle-inconsistency or Lemma-2).
func TestNaiveAttackFailsLoudlyUnderNoise(t *testing.T) {
	failures := 0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		h := host(t, 8)
		locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{
			Chain: lock.MustParseChain("2A-O-2A"), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Aggressive flips, no transients: every corruption is silent, so
		// only the attack's own consistency checks can catch it.
		inj := faults.New(oracle.MustNewSim(h), faults.Config{
			FlipRate: 0.02, Seed: int64(100 + trial),
		})
		res, err := Run(Options{Locked: locked.Circuit, Oracle: inj, Seed: 3})
		if err == nil {
			if !inst.IsCorrectCASKey(res.Key) {
				t.Fatalf("trial %d: naive attack emitted a WRONG key without any error", trial)
			}
			continue // noise happened to miss the decisive queries
		}
		failures++
		if !errors.Is(err, ErrOracleInconsistent) && !errors.Is(err, ErrLemma2) && !errors.Is(err, ErrPartial) {
			t.Fatalf("trial %d: naive failure has no typed classification: %v", trial, err)
		}
	}
	if failures == 0 {
		t.Fatalf("flip rate 0.02 never disturbed the attack across %d trials — test exercised nothing", trials)
	}
}

// TestDeadlineReturnsPartial drives a deliberately huge enumeration
// (a 20-input block ⇒ 2^20-point block space through the simulation
// extractor) against a 1ms deadline: the attack must come back with
// ErrPartial — not a hang and not a wrong key — within a small multiple
// of the deadline.
func TestDeadlineReturnsPartial(t *testing.T) {
	h := host(t, 22)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{
		Chain: lock.MustParseChain("4A-O-14A-O"), Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = Run(Options{
		Context: ctx,
		Locked:  locked.Circuit,
		Oracle:  oracle.MustNewSim(h),
		Seed:    3,
		Workers: 2,
	})
	elapsed := time.Since(start)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("deadline run returned %v, want *PartialError", err)
	}
	if !errors.Is(err, ErrPartial) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partial error lost its classification: %v", err)
	}
	if pe.Stage == "" {
		t.Fatalf("partial error does not name the interrupted stage: %+v", pe)
	}
	// "Bounded" means a small multiple of the deadline, not a fraction of
	// the full multi-second enumeration. Allow generous CI jitter.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("deadline %v but Run held on for %v", deadline, elapsed)
	}
}

// TestCancelReturnsPartialMidExtraction cancels (rather than times out)
// a large extraction and checks the same contract holds for manual
// cancellation.
func TestCancelReturnsPartialMidExtraction(t *testing.T) {
	h := host(t, 22)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{
		Chain: lock.MustParseChain("4A-O-14A-O"), Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = Run(Options{Context: ctx, Locked: locked.Circuit, Oracle: oracle.MustNewSim(h), Seed: 3, Workers: 2})
	if !errors.Is(err, ErrPartial) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v to propagate", elapsed)
	}
}

// TestPermanentOracleFailureIsPartial wires an oracle whose transient
// failures outlive any retry budget and checks the attack surfaces a
// PartialError wrapping the permanent-failure classification instead of
// an opaque error.
func TestPermanentOracleFailureIsPartial(t *testing.T) {
	h := host(t, 8)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{
		Chain: lock.MustParseChain("2A-O-2A"), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(oracle.MustNewSim(h), faults.Config{TransientRate: 1, Seed: 1})
	res := oracle.NewResilient(inj, oracle.ResilientOptions{Retries: 2, Seed: 1, Sleep: noSleep})
	_, err = Run(Options{Locked: locked.Circuit, Oracle: res, Seed: 3})
	if err == nil {
		t.Fatal("attack succeeded against an always-failing oracle")
	}
	if !errors.Is(err, oracle.ErrPermanent) {
		t.Fatalf("error does not carry the permanent-failure classification: %v", err)
	}
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("permanent oracle failure did not degrade gracefully: %v", err)
	}
}

// TestCancelUnwindsDecodePromptly cancels the attack the moment
// extraction hands its DIP set to the decoder: the Algorithm-1 class
// walks and the δ-candidate scan must notice the cancellation through
// their pollers instead of grinding through a >8k-element structured
// class, and the partial error must name "decode" as the interrupted
// stage. Before the pollers existed, this instance held the wind-down
// hostage for the full scan (minutes at signal-smoke widths).
func TestCancelUnwindsDecodePromptly(t *testing.T) {
	h := host(t, 20)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{
		Chain: lock.MustParseChain("3A-O-14A-O"), Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	_, err = Run(Options{
		Context: ctx,
		Locked:  locked.Circuit,
		Oracle:  oracle.MustNewSim(h),
		Seed:    3,
		Log: func(format string, args ...any) {
			if strings.HasPrefix(format, "extracted |I_l|") && cancelled.IsZero() {
				cancelled = time.Now()
				cancel()
			}
		},
	})
	if cancelled.IsZero() {
		t.Fatalf("extraction never reported a DIP set (err=%v)", err)
	}
	elapsed := time.Since(cancelled)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("cancelled decode returned %v, want *PartialError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("partial error lost the cancellation cause: %v", err)
	}
	if pe.Stage != "decode" {
		t.Fatalf("interrupted stage = %q, want decode", pe.Stage)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("decode held the cancellation for %v", elapsed)
	}
}

// TestDeltaCandidatesPollsContext drives the δ scan directly with a
// cancelled context and a structured class big enough to cross the
// poll stride, checking the scan aborts with the context error rather
// than completing (or worse, returning a truncated candidate list that
// looks like a legitimate "needs calibration" answer).
func TestDeltaCandidatesPollsContext(t *testing.T) {
	const n = 18
	dips, err := NewDIPSet(n)
	if err != nil {
		t.Fatal(err)
	}
	half := uint64(1) << (n - 1)
	// W is the top half of the universe: one OR group at position n-1
	// (every pattern with bit n-1 set), with w_nc inside it.
	st := &structured{dips: dips, bigTop: true, s: 0, w: onePointSet{wnc: half, ors: []uint{n - 1}}}
	for p := half; p < 2*half; p++ {
		dips.Add(p)
		st.wList = append(st.wList, p)
	}
	// One suppressed element: small = {w0 ⊕ ¬s} with w0 the first
	// one-point, so V = W ∖ {w0} and the exact quadratic verification
	// path is reachable.
	mask := blockMask(n)
	dips.Add(half ^ mask)
	st.total = dips.Count()
	st.nBig = half

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := &attack{env: &engine.Env{Ctx: ctx}, layout: &BlockLayout{
		InputPos: make([]int, n), Key1Pos: make([]int, n), Key2Pos: make([]int, n),
	}}
	start := time.Now()
	out, err := a.deltaCandidates(st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("deltaCandidates under cancelled ctx returned (%v, %v), want context.Canceled", out, err)
	}
	if out != nil {
		t.Fatalf("cancelled scan still produced candidates: %v", out)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled scan ran for %v", elapsed)
	}
}
