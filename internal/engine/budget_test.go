package engine

import (
	"context"
	"testing"
	"time"
)

// fakeClock drives the budgeter deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBudgeter() (*budgeter, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	b := &budgeter{now: clk.now}
	return b, clk
}

// setSmoothing overrides the EWMA weight; values outside (0,1) are
// ignored.
func (b *budgeter) setSmoothing(alpha float64) {
	if alpha > 0 && alpha < 1 {
		b.smoothing = alpha
	}
}

func deadlineCtx(clk *fakeClock, d time.Duration) (context.Context, context.CancelFunc) {
	// context deadlines use the real clock; anchor them far in the future
	// relative to real time is unnecessary — we only read ctx.Deadline(),
	// never wait on it, so build the deadline from the fake clock's epoch.
	return context.WithDeadline(context.Background(), clk.t.Add(d))
}

func TestSliceNilContextUnbudgeted(t *testing.T) {
	b, _ := testBudgeter()
	if got := b.slice(nil, 0); got != 0 {
		t.Fatalf("nil ctx slice = %d, want 0 (unbudgeted)", got)
	}
}

func TestSliceNoDeadlineUsesCancelSlice(t *testing.T) {
	b, _ := testBudgeter()
	if got := b.slice(context.Background(), 0); got != cancelSliceConflicts {
		t.Fatalf("no-deadline slice = %d, want %d", got, cancelSliceConflicts)
	}
}

func TestSliceExpiredDeadline(t *testing.T) {
	b, clk := testBudgeter()
	ctx, cancel := deadlineCtx(clk, time.Second)
	defer cancel()
	clk.advance(2 * time.Second)
	if got := b.slice(ctx, 0); got != 1 {
		t.Fatalf("expired slice = %d, want 1", got)
	}
}

func TestSliceColdStartProbes(t *testing.T) {
	b, clk := testBudgeter()
	ctx, cancel := deadlineCtx(clk, time.Minute)
	defer cancel()
	if got := b.slice(ctx, 0); got != probeConflicts {
		t.Fatalf("cold slice = %d, want %d", got, probeConflicts)
	}
}

func TestSliceDerivesFromRateAndClamps(t *testing.T) {
	b, clk := testBudgeter()
	ctx, cancel := deadlineCtx(clk, time.Hour)
	defer cancel()
	b.slice(ctx, 0) // anchor the clock
	clk.advance(time.Second)
	// 10k conflicts/second observed; an hour remains → raw grant ~18M,
	// must clamp to maxSlice.
	if got := b.slice(ctx, 10_000); got != maxSlice {
		t.Fatalf("slice = %d, want clamp to %d", got, maxSlice)
	}
}

func TestSliceFloorsAtMinSlice(t *testing.T) {
	b, clk := testBudgeter()
	ctx, cancel := deadlineCtx(clk, 90*time.Second)
	defer cancel()
	b.slice(ctx, 0)
	clk.advance(time.Second)
	b.slice(ctx, 10) // ~10 conflicts/second: tiny rate
	clk.advance(88 * time.Second)
	// ~1s remains at ~10 c/s → raw grant ~5, floored.
	if got := b.slice(ctx, 20); got != minSlice {
		t.Fatalf("slice = %d, want floor %d", got, minSlice)
	}
}

func TestSliceMonotoneWithinPhase(t *testing.T) {
	b, clk := testBudgeter()
	ctx, cancel := deadlineCtx(clk, 10*time.Second)
	defer cancel()
	b.enterPhase(ctx)
	b.slice(ctx, 0)
	clk.advance(time.Second)
	prev := b.slice(ctx, 5000)
	conflicts := uint64(5000)
	for i := 0; i < 6; i++ {
		clk.advance(time.Second)
		conflicts += 3000 // rate wobbles upward
		got := b.slice(ctx, conflicts)
		if got > prev {
			t.Fatalf("grant grew within a phase: %d after %d", got, prev)
		}
		prev = got
	}
}

func TestPhaseCapPreservesLaterPhases(t *testing.T) {
	b, clk := testBudgeter()
	ctx, cancel := deadlineCtx(clk, 20*time.Second)
	defer cancel()
	// Establish a rate of ~1000 conflicts/second.
	b.slice(ctx, 0)
	clk.advance(time.Second)
	b.slice(ctx, 1000)

	// Phase 1 entered with ~19s left → cap ≈ 9500 conflicts.
	b.enterPhase(ctx)
	if !b.capped || b.phaseCap == 0 {
		t.Fatalf("phase cap not armed: capped=%v cap=%d", b.capped, b.phaseCap)
	}
	cap1 := b.phaseCap
	// Burn far past the cap while barely advancing the clock: a greedy
	// phase that solves much faster than the deadline requires.
	conflicts := uint64(1000)
	var crawls int
	for i := 0; i < 40; i++ {
		clk.advance(100 * time.Millisecond)
		conflicts += 2000
		if got := b.slice(ctx, conflicts); got == minSlice && b.phaseCap == 0 {
			crawls++
		}
	}
	if crawls == 0 {
		t.Fatalf("phase never hit its cap (cap was %d)", cap1)
	}

	// Phase 2 must get fresh headroom even though phase 1 overspent.
	b.enterPhase(ctx)
	if b.phaseCap == 0 {
		t.Fatal("later phase entered with zero cap: starvation not fixed")
	}
	if got := b.slice(ctx, conflicts); got <= minSlice {
		t.Fatalf("later phase crawling from the start: slice = %d", got)
	}
}

func TestEnterPhaseWithoutDeadlineUncapped(t *testing.T) {
	b, _ := testBudgeter()
	b.rate = 5000
	b.enterPhase(context.Background())
	if b.capped {
		t.Fatal("capped without a deadline")
	}
	b.enterPhase(nil)
	if b.capped {
		t.Fatal("capped with a nil context")
	}
}

// TestSmoothingFactors drives the budgeter through an identical rate
// step under two smoothing factors on the fake clock: each must follow
// the exact EWMA recurrence for its factor, and the heavier factor must
// converge on the new rate faster.
func TestSmoothingFactors(t *testing.T) {
	rates := map[float64]float64{}
	for _, alpha := range []float64{0.1, 0.8} {
		b, clk := testBudgeter()
		b.setSmoothing(alpha)
		b.observe(0, clk.t) // anchor
		clk.advance(time.Second)
		b.observe(1000, clk.t) // first observation sets rate = 1000
		// Step the true rate to 5000 c/s for four observations.
		want, conflicts := 1000.0, uint64(1000)
		for i := 0; i < 4; i++ {
			clk.advance(time.Second)
			conflicts += 5000
			b.observe(conflicts, clk.t)
			want = (1-alpha)*want + alpha*5000
			if b.rate != want {
				t.Fatalf("alpha=%v step %d: rate = %v, want %v", alpha, i, b.rate, want)
			}
		}
		rates[alpha] = b.rate
	}
	if rates[0.8] <= rates[0.1] {
		t.Fatalf("alpha=0.8 should converge faster toward 5000: got %v vs %v", rates[0.8], rates[0.1])
	}
}

// TestSetSmoothingRejectsOutOfRange confirms invalid factors are ignored
// and the zero-value budgeter falls back to the default weight.
func TestSetSmoothingRejectsOutOfRange(t *testing.T) {
	b, clk := testBudgeter()
	for _, bad := range []float64{-1, 0, 1, 2} {
		b.setSmoothing(bad)
		if b.smoothing != 0 {
			t.Fatalf("setSmoothing(%v) accepted", bad)
		}
	}
	// Zero-value smoothing must behave as the default factor.
	b.observe(0, clk.t)
	clk.advance(time.Second)
	b.observe(1000, clk.t)
	clk.advance(time.Second)
	b.observe(3000, clk.t)
	want := (1-budgetSmoothing)*1000 + budgetSmoothing*2000
	if b.rate != want {
		t.Fatalf("zero-value smoothing rate = %v, want default-weight %v", b.rate, want)
	}
}

func TestObserveChargesCapAndUpdatesRate(t *testing.T) {
	b, clk := testBudgeter()
	b.observe(0, clk.t) // anchor
	clk.advance(time.Second)
	b.observe(1000, clk.t)
	if b.rate != 1000 {
		t.Fatalf("first rate = %v, want 1000", b.rate)
	}
	clk.advance(time.Second)
	b.observe(3000, clk.t) // instantaneous 2000 c/s
	want := (1-budgetSmoothing)*1000 + budgetSmoothing*2000
	if b.rate != want {
		t.Fatalf("EWMA rate = %v, want %v", b.rate, want)
	}
	b.capped, b.phaseCap = true, 500
	clk.advance(time.Second)
	b.observe(3200, clk.t)
	if b.phaseCap != 300 {
		t.Fatalf("cap after 200 spent = %d, want 300", b.phaseCap)
	}
	clk.advance(time.Second)
	b.observe(9999, clk.t)
	if b.phaseCap != 0 {
		t.Fatalf("overspent cap = %d, want 0", b.phaseCap)
	}
}
