package events

import (
	"testing"
	"time"
)

// script feeds a deterministic event sequence with explicit timestamps.
func script(e *Estimator, evs ...Event) {
	for _, ev := range evs {
		e.Observe(ev)
	}
}

func TestEstimatorPhaseLadderIsMonotone(t *testing.T) {
	e := NewEstimator()
	var prev float64
	steps := []Event{
		{Type: TypePhaseEnter, Phase: "calibrate", TS: 1000},
		{Type: TypePhaseExit, Phase: "calibrate", TS: 1100},
		{Type: TypePhaseEnter, Phase: "enumerate", TS: 1100},
		{Type: TypeDIPProgress, Done: 25, Total: 100, TS: 1500},
		{Type: TypeDIPProgress, Done: 80, Total: 100, TS: 2000},
		{Type: TypePhaseExit, Phase: "enumerate", TS: 2300},
		{Type: TypePhaseEnter, Phase: "decode", TS: 2300},
		{Type: TypePhaseEnter, Phase: "algo1", TS: 2400},
		{Type: TypePhaseEnter, Phase: "algo2", TS: 2500},
		{Type: TypePhaseEnter, Phase: "verify", TS: 2600},
		// Hypothesis retry: re-entering enumerate must not regress.
		{Type: TypePhaseEnter, Phase: "enumerate", TS: 2700},
		{Type: TypeDone, TS: 3000},
	}
	for i, ev := range steps {
		e.Observe(ev)
		p := e.Snapshot()
		if p.Fraction < prev {
			t.Fatalf("step %d (%s %s): fraction regressed %.3f -> %.3f", i, ev.Type, ev.Phase, prev, p.Fraction)
		}
		if p.Fraction < 0 || p.Fraction > 1 {
			t.Fatalf("step %d: fraction %.3f outside [0,1]", i, p.Fraction)
		}
		prev = p.Fraction
	}
	final := e.Snapshot()
	if final.Fraction != 1 {
		t.Fatalf("final fraction %.3f, want 1", final.Fraction)
	}
	if final.ETA != 0 {
		t.Fatalf("final ETA %v, want 0", final.ETA)
	}
}

func TestEstimatorUsesDIPSpaceFraction(t *testing.T) {
	e := NewEstimator()
	script(e,
		Event{Type: TypePhaseEnter, Phase: "enumerate", TS: 1000},
		Event{Type: TypeDIPProgress, Done: 50, Total: 100, TS: 2000},
	)
	p := e.Snapshot()
	sp := phaseSpans["enumerate"]
	want := sp.base + sp.width*0.5
	if diff := p.Fraction - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("fraction %.4f, want %.4f (half the enumerate span)", p.Fraction, want)
	}
	if p.Phase != "enumerate" {
		t.Fatalf("phase %q, want enumerate", p.Phase)
	}
	if p.ETA <= 0 {
		t.Fatalf("ETA %v, want positive extrapolation", p.ETA)
	}
}

func TestNilEstimator(t *testing.T) {
	var e *Estimator
	e.Observe(Event{Type: TypeDone})
	if p := e.Snapshot(); p.Fraction != 0 || p.ETA != 0 {
		t.Fatalf("nil estimator snapshot = %+v", p)
	}
}

func TestTrackerRepublishesProgress(t *testing.T) {
	b := New(Options{})
	var mu chan Progress = make(chan Progress, 64)
	tr := Track(b, time.Millisecond, func(p Progress) { mu <- p })
	sub := b.Subscribe(0)
	b.Publish(Event{Type: TypePhaseEnter, Phase: "enumerate"})
	b.Publish(Event{Type: TypeDIPProgress, Done: 50, Total: 100})
	time.Sleep(20 * time.Millisecond)
	b.Publish(Event{Type: TypeDone})

	// The terminal digest is always republished; wait for fraction 1.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case p := <-mu:
			if p.Fraction >= 1 {
				goto drained
			}
		case <-deadline:
			t.Fatal("tracker never republished the terminal digest")
		}
	}
drained:
	b.Close()
	tr.Close()
	// The raw subscription must have seen at least one progress event
	// among the originals, with fraction ultimately reaching 1.
	var sawProgress bool
	var finalFrac float64
	for _, ev := range collectAll(sub) {
		if ev.Type == TypeProgress {
			sawProgress = true
			finalFrac = ev.Fraction
		}
	}
	if !sawProgress {
		t.Fatal("no progress events republished onto the bus")
	}
	if finalFrac < 1 {
		t.Fatalf("final progress fraction %.3f, want 1", finalFrac)
	}
	// Tracker APIs are nil-safe.
	var nilT *Tracker
	nilT.Close()
	_ = nilT.Snapshot()
	if Track(nil, 0, nil) != nil {
		t.Fatal("Track(nil) should return nil")
	}
}

func collectAll(s *Subscription) []Event {
	var out []Event
	for {
		evs := s.Poll()
		out = append(out, evs...)
		if len(evs) == 0 && s.Closed() {
			return out
		}
		if len(evs) == 0 {
			<-s.Wait()
		}
	}
}
