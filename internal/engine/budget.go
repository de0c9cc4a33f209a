package engine

import (
	"context"
	"time"
)

// Slice sizing for deadline-bounded solving.
const (
	// cancelSliceConflicts bounds one Solve slice when a context is
	// attached but carries no deadline (pure cancellation): large enough
	// that slicing overhead vanishes, small enough that cancellation
	// lands within tens of milliseconds on typical encodings.
	cancelSliceConflicts = 1 << 14
	// probeConflicts is the first slice before any rate is known.
	probeConflicts = 1024
	// minSlice floors every grant so the context is still polled at a
	// bounded interval even when a phase has exhausted its share.
	minSlice = 256
	// maxSlice caps a single grant so the deadline is re-examined a few
	// times before it lands.
	maxSlice = 1 << 20
)

// budgeter converts a context deadline into per-Solve conflict budgets.
// Re-deriving the conflict rate from each enumeration's own wall clock
// and granting half the predicted remainder per slice would let a long
// early phase spend the entire deadline before later phases
// (calibration, verification) ran at all. The budgeter instead:
//
//   - anchors on one engine-lifetime clock and keeps a persistent EWMA
//     of the observed conflict rate across every solve session and
//     phase, so early slices of a new phase are sized from real history
//     rather than a cold probe;
//   - caps each phase's total spending at half the conflicts predicted
//     to remain at phase entry, so no phase can starve its successors;
//   - makes the per-slice grant monotonically non-increasing within a
//     phase, so grants shrink as the deadline approaches instead of
//     oscillating with instantaneous rate estimates.
//
// A phase that exhausts its share is not stopped — correctness never
// depends on the budget — it just crawls at minSlice-sized grants, which
// keeps context polls frequent while leaving headroom for later phases.

// budgetSmoothing is the EWMA weight of the newest rate observation: a
// stale regime (enumeration → distinguish → verification sessions swing
// the conflict rate 2–3×) decays to ~25% in two observations, while one
// outlier session moves the estimate at most half-way.
const budgetSmoothing = 0.5

type budgeter struct {
	now func() time.Time // injected for tests; time.Now in production

	// smoothing is the EWMA weight of each new rate observation, in
	// (0,1); zero means budgetSmoothing. Only tests set other weights.
	smoothing float64

	lastT         time.Time
	lastConflicts uint64
	rate          float64 // EWMA conflicts/second, engine lifetime

	capped     bool   // a per-phase cap is in force
	phaseCap   uint64 // conflicts this phase may still spend
	phaseGrant uint64 // previous grant this phase; the next never exceeds it
}

func newBudgeter() budgeter {
	return budgeter{now: time.Now}
}

// enterPhase resets the per-phase state: the new phase may spend at most
// half the conflicts predicted to remain before the deadline (no cap
// until a rate has been observed, or without a deadline).
func (b *budgeter) enterPhase(ctx context.Context) {
	b.phaseGrant = 0
	b.capped = false
	b.phaseCap = 0
	if ctx == nil || b.rate == 0 {
		return
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return
	}
	remaining := deadline.Sub(b.now())
	if remaining <= 0 {
		b.capped = true
		return
	}
	cap := uint64(b.rate * remaining.Seconds() / 2)
	if cap < minSlice {
		cap = minSlice
	}
	b.capped = true
	b.phaseCap = cap
}

// observe folds the conflicts spent since the last call into the rate
// estimate and charges them against the phase cap. conflicts is the
// solver's cumulative (monotone) conflict counter.
func (b *budgeter) observe(conflicts uint64, now time.Time) {
	if b.lastT.IsZero() {
		b.lastT = now
		b.lastConflicts = conflicts
		return
	}
	dc := conflicts - b.lastConflicts
	dt := now.Sub(b.lastT).Seconds()
	if b.capped {
		if dc >= b.phaseCap {
			b.phaseCap = 0
		} else {
			b.phaseCap -= dc
		}
	}
	if dc > 0 && dt > 0 {
		inst := float64(dc) / dt
		if b.rate == 0 {
			b.rate = inst
		} else {
			alpha := b.smoothing
			if alpha == 0 {
				alpha = budgetSmoothing
			}
			b.rate = (1-alpha)*b.rate + alpha*inst
		}
	}
	b.lastT = now
	b.lastConflicts = conflicts
}

// slice returns the conflict budget for the next Solve call: 0 when
// unbudgeted (no context), otherwise a grant derived from the remaining
// deadline, the persistent rate, and the phase's remaining share.
func (b *budgeter) slice(ctx context.Context, conflicts uint64) uint64 {
	if ctx == nil {
		return 0
	}
	now := b.now()
	b.observe(conflicts, now)
	deadline, ok := ctx.Deadline()
	if !ok {
		return cancelSliceConflicts
	}
	remaining := deadline.Sub(now)
	if remaining <= 0 {
		return 1 // expired: the caller's pre-Solve context check fires next
	}
	if b.rate == 0 {
		return probeConflicts
	}
	budget := uint64(b.rate * remaining.Seconds() / 2)
	if budget < minSlice {
		budget = minSlice
	}
	if budget > maxSlice {
		budget = maxSlice
	}
	if b.phaseGrant > 0 && budget > b.phaseGrant {
		budget = b.phaseGrant // monotone within the phase
	}
	if b.capped {
		if b.phaseCap == 0 {
			return minSlice // share exhausted: crawl, poll often
		}
		if budget > b.phaseCap {
			budget = b.phaseCap
		}
	}
	b.phaseGrant = budget
	return budget
}
