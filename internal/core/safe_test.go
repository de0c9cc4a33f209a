package core

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// panicOracle blows up inside the attack, standing in for an internal
// invariant tripped by hostile input.
type panicOracle struct{ oracle.Oracle }

func (panicOracle) Query([]bool) ([]bool, error)       { panic("oracle invariant violated") }
func (panicOracle) Query64([]uint64) ([]uint64, error) { panic("oracle invariant violated") }

func TestRunSafeRecoversPanic(t *testing.T) {
	h := host(t, 10)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain("A-O-2A"), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.NewSim(h)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSafe(Options{Locked: locked.Circuit, Oracle: panicOracle{orc}})
	if res != nil {
		t.Fatal("panicking attack returned a result")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "oracle invariant violated" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError carries %v / %d stack bytes", pe.Value, len(pe.Stack))
	}
}

func TestNewDIPSetWidthSentinel(t *testing.T) {
	for _, n := range []int{0, -1, maxDenseBits + 1} {
		if _, err := NewDIPSet(n); !errors.Is(err, ErrBlockWidth) {
			t.Errorf("NewDIPSet(%d) = %v, want ErrBlockWidth", n, err)
		}
	}
	if _, err := NewDIPSet(1); err != nil {
		t.Errorf("NewDIPSet(1) = %v", err)
	}
}

// TestSATEncodingCacheAcrossHypotheses checks the SAT extractor reuses
// its miter encoding across extractions: both Lemma-1 hypothesis
// assignments and a replay of the first run on one persistent engine
// encoding, and every set matches the exhaustive simulation walk
// pattern for pattern.
func TestSATEncodingCacheAcrossHypotheses(t *testing.T) {
	h := host(t, 10)
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain("A-O-2A-O"), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DiscoverLayout(locked.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	ext, err := NewSATExtractor(locked.Circuit, layout, &engine.Env{Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimExtractor(locked.Circuit, layout, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, active := range []int{1, 2, 1} {
		assign := hypothesisAssign(locked.Circuit, layout, active)
		got, err := ext.DIPs(assign)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.DIPs(assign)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("extraction %d (hypothesis %d): SAT found %d DIPs, exhaustive simulation %d (sets differ)",
				i, active, got.Count(), want.Count())
		}
	}
	if n := tel.Counter("engine_encodings_total").Value(); n != 1 {
		t.Fatalf("engine_encodings_total = %d after both hypotheses and a replay, want 1", n)
	}
}
