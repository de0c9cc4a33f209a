package engine

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/telemetry"
)

// TestPoolLRUAndCounters pins the eviction story: capacity counts
// parked engines, overflow drops the least-recently-parked one, Take
// returns the newest entry for a key and removes it, and the
// engine_pool_* counters record every hit, miss and eviction.
func TestPoolLRUAndCounters(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	mk := func() *Engine {
		e, err := New(locked, allInputs(locked))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	reg := telemetry.New()
	p := NewPool(2)
	p.SetTelemetry(reg)
	e1, e2, e3 := mk(), mk(), mk()
	p.Put("a", e1)
	p.Put("a", e2)
	p.Put("b", e3) // over capacity: e1 (oldest) is evicted
	if p.Len() != 2 {
		t.Fatalf("pool holds %d engines, want 2", p.Len())
	}
	if got := p.Take("a"); got != e2 {
		t.Fatal("Take(a) did not return the most recently parked engine")
	}
	if got := p.Take("a"); got != nil {
		t.Fatal("Take(a) returned an evicted or duplicate engine")
	}
	if got := p.Take("b"); got != e3 {
		t.Fatal("Take(b) did not return the parked engine")
	}
	p.Put("c", nil) // ignored
	if p.Len() != 0 {
		t.Fatalf("pool holds %d engines, want 0", p.Len())
	}
	snap := reg.Snapshot()
	if snap.Counters["engine_pool_hits_total"] != 2 ||
		snap.Counters["engine_pool_misses_total"] != 1 ||
		snap.Counters["engine_pool_evictions_total"] != 1 {
		t.Fatalf("pool counters = hits %d / misses %d / evictions %d, want 2/1/1",
			snap.Counters["engine_pool_hits_total"],
			snap.Counters["engine_pool_misses_total"],
			snap.Counters["engine_pool_evictions_total"])
	}
}

// TestPoolReleasesDroppedEngines checks that the pool's backing array
// does not pin an engine it no longer holds: both an evicted engine and
// one taken out and then dropped by the caller must become garbage.
func TestPoolReleasesDroppedEngines(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	mk := func() *Engine {
		e, err := New(locked, allInputs(locked))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	finalized := func(e *Engine) <-chan struct{} {
		ch := make(chan struct{})
		runtime.SetFinalizer(e, func(*Engine) { close(ch) })
		return ch
	}
	waitCollected := func(what string, ch <-chan struct{}) {
		t.Helper()
		for i := 0; i < 20; i++ {
			runtime.GC()
			select {
			case <-ch:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		t.Fatalf("%s engine is still reachable after GC", what)
	}

	evictPool := NewPool(1)
	evicted := func() <-chan struct{} {
		e := mk()
		ch := finalized(e)
		evictPool.Put("a", e)
		return ch
	}()
	evictPool.Put("b", mk()) // evicts the first engine
	waitCollected("evicted", evicted)
	runtime.KeepAlive(evictPool)

	takePool := NewPool(2)
	takePool.Put("a", mk())
	taken := func() <-chan struct{} {
		e := mk()
		ch := finalized(e)
		takePool.Put("b", e) // the newest entry: its slot is the one Take vacates
		if takePool.Take("b") != e {
			t.Fatal("Take(b) did not return the parked engine")
		}
		return ch
	}()
	waitCollected("taken-then-dropped", taken)
	runtime.KeepAlive(takePool)
}

// TestPoolRecycleKeepsWarmth checks the Put→Take round trip: job
// wiring (context, telemetry, events, phase) is detached, while the
// budgeter rate and the solved encoding survive — a recycled engine
// answers the next job's queries correctly without re-encoding.
func TestPoolRecycleKeepsWarmth(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	eng, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	eng.SetTelemetry(reg)
	eng.SetEvents(events.New(events.Options{}))
	eng.SetContext(context.Background())
	eng.SetPhase("job1")
	rng := rand.New(rand.NewSource(71))
	nk := locked.NumKeys()
	keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
	want := bruteDIPs(t, locked, keyA, keyB)
	collect(t, eng, keyA, keyB)
	eng.SetBudgetRate(123.5) // stand-in for the learned EWMA rate

	p := NewPool(1)
	p.Put("k", eng)
	got := p.Take("k")
	if got == nil {
		t.Fatal("warm engine lost in the pool")
	}
	if rate := got.BudgetRate(); rate != 123.5 {
		t.Fatalf("budgeter rate = %v after recycle, want 123.5 preserved", rate)
	}
	if got.ctx != nil || got.tel != nil || got.bus != nil || got.phase != "" {
		t.Fatal("recycled engine still wired to the finished job")
	}
	reg2 := telemetry.New()
	got.SetTelemetry(reg2)
	found := collect(t, got, keyA, keyB)
	if len(found) != len(want) {
		t.Fatalf("recycled engine found %d DIPs, want %d", len(found), len(want))
	}
	// Warmth proof: the adopted engine never encoded under the new
	// job's registry.
	if n := reg2.Snapshot().Counters["engine_encodings_total"]; n != 0 {
		t.Fatalf("recycled engine re-encoded %d times", n)
	}
}
