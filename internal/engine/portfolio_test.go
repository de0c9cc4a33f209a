package engine

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/telemetry"
)

func collectBackend(t *testing.T, b Backend, keyA, keyB []bool) map[uint64]bool {
	t.Helper()
	got := make(map[uint64]bool)
	err := b.EnumerateDIPs(keyA, keyB, func(pat uint64) bool {
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

// TestPortfolioEnumerateMatchesEngine races the portfolio against a
// single engine and brute force across key pairs on one shared
// portfolio instance, so later sessions run with accumulated learnt
// state and possibly imported clauses.
func TestPortfolioEnumerateMatchesEngine(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	single, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	port, err := NewPortfolio(locked, allInputs(locked), 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	nk := locked.NumKeys()
	for trial := 0; trial < 10; trial++ {
		keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
		want := bruteDIPs(t, locked, keyA, keyB)
		gotSingle := collectBackend(t, single, keyA, keyB)
		gotPort := collectBackend(t, port, keyA, keyB)
		if len(gotPort) != len(want) || len(gotSingle) != len(want) {
			t.Fatalf("trial %d: portfolio %d, single %d, brute %d DIPs",
				trial, len(gotPort), len(gotSingle), len(want))
		}
		for p := range want {
			if !gotPort[p] {
				t.Fatalf("trial %d: portfolio missing DIP %b", trial, p)
			}
		}
	}
}

// TestPortfolioSeededEnumeration checks seeded patterns are blocked in
// every member: none is re-visited, and the remainder is complete.
func TestPortfolioSeededEnumeration(t *testing.T) {
	locked := lockedInstance(t, 6, "A-O-2A", 3)
	port, err := NewPortfolio(locked, allInputs(locked), 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	nk := locked.NumKeys()
	for trial := 0; trial < 6; trial++ {
		keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
		want := bruteDIPs(t, locked, keyA, keyB)
		if len(want) < 2 {
			continue
		}
		// Seed half the true DIP set.
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
		err := port.EnumerateDIPsSeeded(keyA, keyB, seedFn, func(pat uint64) bool {
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
	}
}

// TestPortfolioDistinguishAgreesWithEngine compares racing verdicts
// with single-engine verdicts and validates witnesses by evaluation.
func TestPortfolioDistinguishAgreesWithEngine(t *testing.T) {
	locked := lockedInstance(t, 7, "2A-O-2A", 11)
	single, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	port, err := NewPortfolio(locked, allInputs(locked), 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	nk := locked.NumKeys()
	for trial := 0; trial < 8; trial++ {
		keyA := randomKey(rng, nk)
		keyB := keyA
		if trial%2 == 0 {
			keyB = randomKey(rng, nk)
		}
		_, wantEq, err := single.Distinguish(keyA, keyB, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := port.DistinguishEx(keyA, keyB, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Equivalent != wantEq {
			t.Fatalf("trial %d: portfolio equivalent=%v, single=%v", trial, out.Equivalent, wantEq)
		}
		if out.Disagreed {
			t.Fatalf("trial %d: members disagreed", trial)
		}
		if !out.Reason.Definitive() {
			t.Fatalf("trial %d: unbudgeted race returned %q", trial, out.Reason)
		}
		if out.Equivalent {
			continue
		}
		a, err := locked.Eval(out.Witness, keyA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := locked.Eval(out.Witness, keyB)
		if err != nil {
			t.Fatal(err)
		}
		differs := false
		for i := range a {
			if a[i] != b[i] {
				differs = true
			}
		}
		if !differs {
			t.Fatalf("trial %d: witness does not distinguish", trial)
		}
	}
}

// TestDistinguishUnknownObservable pins the budget-starvation path: a
// one-conflict budget must produce ReasonUnknownBudget (never a silent
// "proved"), increment engine_distinguish_unknown_total, and publish a
// distinguish event with the reason.
func TestDistinguishUnknownObservable(t *testing.T) {
	locked := lockedInstance(t, 7, "2A-O-2A", 11)
	eng, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	bus := events.New(events.Options{})
	eng.SetTelemetry(reg)
	eng.SetEvents(bus)
	rng := rand.New(rand.NewSource(53))
	nk := locked.NumKeys()
	var unknowns uint64
	for trial := 0; trial < 6; trial++ {
		keyA := randomKey(rng, nk)
		out, err := eng.DistinguishEx(keyA, keyA, 1)
		if err != nil {
			t.Fatal(err)
		}
		switch out.Reason {
		case ReasonUnknownBudget:
			unknowns++
			if !out.Equivalent {
				t.Fatal("unknown_budget must still report equivalent (Unknown-means-equivalent contract)")
			}
		case ReasonProved:
		default:
			t.Fatalf("trial %d: unexpected reason %q", trial, out.Reason)
		}
	}
	if unknowns == 0 {
		t.Skip("every 1-conflict solve completed; nothing to observe on this host")
	}
	if got := reg.Snapshot().Counters["engine_distinguish_unknown_total"]; got != unknowns {
		t.Fatalf("engine_distinguish_unknown_total = %d, want %d", got, unknowns)
	}
	found := false
	for _, ev := range bus.History(0) {
		if ev.Type == events.TypeDistinguish && ev.Fields["reason"] == string(ReasonUnknownBudget) {
			found = true
		}
	}
	if !found {
		t.Fatal("no distinguish event with reason=unknown_budget on the bus")
	}
}

// TestPortfolioTelemetry checks the portfolio counter families: exactly
// one encoding despite three members, a win recorded per completed
// race, and clause-sharing counters consistent with the members'
// Imported stats.
func TestPortfolioTelemetry(t *testing.T) {
	locked := lockedInstance(t, 7, "2A-O-2A", 11)
	port, err := NewPortfolio(locked, allInputs(locked), 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	port.SetTelemetry(reg)
	rng := rand.New(rand.NewSource(59))
	nk := locked.NumKeys()
	races := 0
	for trial := 0; trial < 6; trial++ {
		collectBackend(t, port, randomKey(rng, nk), randomKey(rng, nk))
		races++
	}
	snap := reg.Snapshot()
	if got := snap.Counters["engine_encodings_total"]; got != 1 {
		t.Fatalf("engine_encodings_total = %d, want 1 (one shared encode)", got)
	}
	var wins uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "portfolio_wins_total") {
			wins += v
		}
	}
	if wins != uint64(races) {
		t.Fatalf("portfolio_wins_total sums to %d, want %d races", wins, races)
	}
	if snap.Counters["portfolio_disagreements_total"] != 0 {
		t.Fatal("soundness alarm: members disagreed")
	}
	// Sharing is workload-dependent, but accounting must be coherent:
	// clauses can only be imported if some were shared.
	if port.Stats().Imported > 0 && snap.Counters["portfolio_clauses_shared_total"] == 0 {
		t.Fatal("members imported clauses that were never counted as shared")
	}
	// Per-member span lanes must not collide.
	lanes := make(map[int]bool)
	for _, m := range port.members {
		if lanes[m.lane] {
			t.Fatalf("duplicate member lane %d", m.lane)
		}
		lanes[m.lane] = true
	}
}

// TestPortfolioRaceHammer drives enumerate/distinguish races back to
// back — including under a tight deadline, which exercises loser
// cancellation, the solver interrupt, and the clause exchange — and is
// the test the -race run leans on.
func TestPortfolioRaceHammer(t *testing.T) {
	locked := lockedInstance(t, 7, "2A-O-2A", 13)
	port, err := NewPortfolio(locked, allInputs(locked), 4)
	if err != nil {
		t.Fatal(err)
	}
	port.SetTelemetry(telemetry.New())
	port.SetEvents(events.New(events.Options{}))
	rng := rand.New(rand.NewSource(61))
	nk := locked.NumKeys()
	port.SetPhase("hammer")
	for trial := 0; trial < 12; trial++ {
		keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
		collectBackend(t, port, keyA, keyB)
		if _, _, err := port.Distinguish(keyA, keyB, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Deadline pressure: a context that expires mid-run must surface
	// the deadline error (or complete first) without racing.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	port.SetContext(ctx)
	for trial := 0; trial < 6; trial++ {
		err := port.EnumerateDIPs(randomKey(rng, nk), randomKey(rng, nk), func(uint64) bool { return true })
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
	}
	port.SetContext(nil)
	// The portfolio must still answer correctly after cancellations.
	keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
	want := bruteDIPs(t, locked, keyA, keyB)
	got := collectBackend(t, port, keyA, keyB)
	if len(got) != len(want) {
		t.Fatalf("post-cancel enumeration found %d DIPs, want %d", len(got), len(want))
	}
}

// TestPortfolioAdaptiveShrink pins the adaptive-sizing contract: the
// race fan-out shrinks to the streak winner only after shrinkAfter
// CONSECUTIVE wins (a broken streak restarts the count), the shrink is
// counted once in portfolio_resized_total, post-shrink races still
// enumerate the complete DIP set, and delegated session queries keep
// running on the baseline member.
func TestPortfolioAdaptiveShrink(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	port, err := NewPortfolio(locked, allInputs(locked), 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	port.SetTelemetry(reg)
	port.SetShrinkAfter(4)
	if err := port.ensure(); err != nil {
		t.Fatal(err)
	}
	// Three wins for member 1: below the threshold, no shrink.
	for i := 0; i < 3; i++ {
		port.recordWin(1)
	}
	if port.ActiveSize() != 3 {
		t.Fatalf("shrank after %d wins, threshold is 4", 3)
	}
	// A win for member 2 breaks the streak…
	port.recordWin(2)
	if port.ActiveSize() != 3 {
		t.Fatal("shrank on a broken streak")
	}
	// …and four more consecutive wins for member 2 trigger the shrink.
	for i := 0; i < 4; i++ {
		port.recordWin(2)
	}
	if port.ActiveSize() != 1 {
		t.Fatalf("ActiveSize = %d after a 4-win streak, want 1", port.ActiveSize())
	}
	if port.active[0] != 2 {
		t.Fatalf("active member = %d, want the streak winner 2", port.active[0])
	}
	if got := reg.Snapshot().Counters["portfolio_resized_total"]; got != 1 {
		t.Fatalf("portfolio_resized_total = %d, want 1", got)
	}
	// Further wins cannot shrink (or count) again.
	for i := 0; i < 8; i++ {
		port.recordWin(2)
	}
	if got := reg.Snapshot().Counters["portfolio_resized_total"]; got != 1 {
		t.Fatalf("portfolio_resized_total = %d after extra wins, want 1", got)
	}
	// Post-shrink races remain complete and correct.
	rng := rand.New(rand.NewSource(71))
	nk := locked.NumKeys()
	for trial := 0; trial < 4; trial++ {
		keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
		want := bruteDIPs(t, locked, keyA, keyB)
		if got := collectBackend(t, port, keyA, keyB); len(got) != len(want) {
			t.Fatalf("trial %d: post-shrink race found %d DIPs, want %d", trial, len(got), len(want))
		}
	}
	// Delegated sessions still run on the baseline member 0.
	ses, err := port.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ses.FindDIP(); err != nil {
		t.Fatal(err)
	}
	ses.Close()
	// SetShrinkAfter(0) disables adaptivity entirely.
	fixed, err := NewPortfolio(locked, allInputs(locked), 2)
	if err != nil {
		t.Fatal(err)
	}
	fixed.SetTelemetry(reg)
	fixed.SetShrinkAfter(0)
	if err := fixed.ensure(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		fixed.recordWin(0)
	}
	if fixed.ActiveSize() != 2 {
		t.Fatal("SetShrinkAfter(0) did not disable adaptive sizing")
	}
}

// TestPortfolioSizeDefaults covers the sizing contract.
func TestPortfolioSizeDefaults(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	p, err := NewPortfolio(locked, allInputs(locked), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != DefaultPortfolioSize {
		t.Fatalf("default size = %d, want %d", p.Size(), DefaultPortfolioSize)
	}
	one, err := NewPortfolio(locked, allInputs(locked), 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Size() != 1 {
		t.Fatalf("size = %d, want 1", one.Size())
	}
	rng := rand.New(rand.NewSource(67))
	nk := locked.NumKeys()
	keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
	want := bruteDIPs(t, locked, keyA, keyB)
	if got := collectBackend(t, one, keyA, keyB); len(got) != len(want) {
		t.Fatalf("1-member portfolio found %d DIPs, want %d", len(got), len(want))
	}
}
