package core

import (
	"errors"
	"testing"

	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// panicExtractor blows up inside the attack, standing in for an
// internal invariant tripped by hostile input.
type panicExtractor struct{ n int }

func (p *panicExtractor) BlockWidth() int                        { return p.n }
func (p *panicExtractor) DIPs(PairAssign) (*DIPSet, error)       { panic("extractor invariant violated") }
func (p *panicExtractor) Classes(PairAssign) (ClassSizes, error) { panic("unreachable") }
func (p *panicExtractor) Extractions() int                       { return 0 }

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
	res, err := RunSafe(Options{Locked: locked.Circuit, Oracle: orc, Extractor: &panicExtractor{n: 5}})
	if res != nil {
		t.Fatal("panicking attack returned a result")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "extractor invariant violated" || len(pe.Stack) == 0 {
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

// TestSATEncodingCacheAcrossHypotheses runs a full attack through a
// caller-supplied SAT extractor and checks the miter encoding is reused
// across extractions: the attack extracts under both Lemma-1 hypothesis
// assignments (and possibly a calibration sweep) on one persistent
// engine encoding, and replaying a hypothesis afterwards neither
// re-encodes nor changes the DIP set, which must match the exhaustive
// simulation walk pattern for pattern.
func TestSATEncodingCacheAcrossHypotheses(t *testing.T) {
	h := host(t, 10)
	locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain("A-O-2A-O"), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.NewSim(h)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	layout, err := DiscoverLayout(locked.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewSATExtractor(locked.Circuit, layout)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Locked: locked.Circuit, Oracle: orc, Extractor: ext, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCorrectCASKey(res.Key) {
		t.Fatal("recovered key incorrect")
	}
	if ext.Extractions() < 2 {
		t.Fatalf("%d extractions, want both hypotheses", ext.Extractions())
	}
	assign := hypothesisAssign(locked.Circuit, layout, 1)
	got, err := ext.DIPs(assign)
	if err != nil {
		t.Fatal(err)
	}
	if n := tel.Counter("engine_encodings_total").Value(); n != 1 {
		t.Fatalf("engine_encodings_total = %d after a replayed hypothesis, want 1", n)
	}
	sim, err := NewSimExtractor(locked.Circuit, layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.DIPs(assign)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("replayed SAT extraction found %d DIPs, exhaustive simulation %d (sets differ)", got.Count(), want.Count())
	}
}
