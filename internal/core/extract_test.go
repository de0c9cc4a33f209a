package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
)

func lockedInstance(t *testing.T, chainCfg string, seed int64) (*netlist.Circuit, *lock.CASInstance, *netlist.Circuit) {
	t.Helper()
	chain := lock.MustParseChain(chainCfg)
	h, err := synth.Generate(synth.Config{Name: "h", Inputs: chain.NumInputs() + 2, Outputs: 3, Gates: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{Chain: chain, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return locked.Circuit, inst, h
}

func TestSATExtractorWidthLimit(t *testing.T) {
	lockedC, _, _ := lockedInstance(t, "2A-O-A", 1)
	layout, err := DiscoverLayout(lockedC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSATExtractor(lockedC, layout, nil); err != nil {
		t.Errorf("5-input block rejected: %v", err)
	}
	wide := &BlockLayout{
		InputPos: make([]int, 31),
		Key1Pos:  make([]int, 31),
		Key2Pos:  make([]int, 31),
	}
	if _, err := NewSATExtractor(lockedC, wide, nil); err == nil {
		t.Error("31-input block accepted by the SAT extractor")
	}
}

func TestExtractorAssignValidation(t *testing.T) {
	lockedC, _, _ := lockedInstance(t, "2A-O-A", 2)
	layout, err := DiscoverLayout(lockedC)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimExtractor(lockedC, layout, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.DIPs(PairAssign{A: []bool{true}, B: []bool{false}}); err == nil {
		t.Error("short key assignment accepted")
	}
	if _, err := sim.Classes(PairAssign{}); err == nil {
		t.Error("empty key assignment accepted")
	}
}

func TestSimExtractorRejectsKeylessCircuit(t *testing.T) {
	h, err := synth.Generate(synth.Config{Name: "h", Inputs: 8, Outputs: 2, Gates: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	layout := &BlockLayout{InputPos: []int{0, 1, 2}, Key1Pos: []int{0, 1, 2}, Key2Pos: []int{3, 4, 5}}
	if _, err := NewSimExtractor(h, layout, 1, nil); err == nil {
		t.Error("key-free circuit accepted")
	}
}

func TestExtractionCounting(t *testing.T) {
	lockedC, _, _ := lockedInstance(t, "2A-O-A", 4)
	layout, err := DiscoverLayout(lockedC)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewSimExtractor(lockedC, layout, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	assign := PairAssign{A: make([]bool, lockedC.NumKeys()), B: make([]bool, lockedC.NumKeys())}
	for _, pos := range layout.Key1Pos {
		assign.A[pos] = true
	}
	if _, err := ext.DIPs(assign); err != nil {
		t.Fatal(err)
	}
	if _, err := ext.Classes(assign); err != nil {
		t.Fatal(err)
	}
	if ext.Extractions() != 2 {
		t.Errorf("Extractions = %d, want 2", ext.Extractions())
	}
}

// TestPreparedSharesStaticCone checks the static/dynamic split: with no
// differing keys the two copies collapse and no DIPs exist.
func TestPreparedSharesStaticCone(t *testing.T) {
	lockedC, _, _ := lockedInstance(t, "A-O-2A", 5)
	layout, err := DiscoverLayout(lockedC)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewSimExtractor(lockedC, layout, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	nk := lockedC.NumKeys()
	rng := rand.New(rand.NewSource(6))
	same := make([]bool, nk)
	for i := range same {
		same[i] = rng.Intn(2) == 1
	}
	dips, err := ext.DIPs(PairAssign{A: same, B: append([]bool(nil), same...)})
	if err != nil {
		t.Fatal(err)
	}
	if dips.Count() != 0 {
		t.Errorf("identical keys produced %d DIPs", dips.Count())
	}
}

// errOracle fails after a set number of queries, testing error
// propagation through the attack pipeline.
type errOracle struct {
	inner   oracle.Oracle
	budget  int
	queries int
}

func (e *errOracle) NumInputs() int  { return e.inner.NumInputs() }
func (e *errOracle) NumOutputs() int { return e.inner.NumOutputs() }

func (e *errOracle) Query(in []bool) ([]bool, error) {
	e.queries++
	if e.queries > e.budget {
		return nil, errors.New("oracle budget exhausted")
	}
	return e.inner.Query(in)
}

func (e *errOracle) Query64(in []uint64) ([]uint64, error) {
	e.queries++
	if e.queries > e.budget {
		return nil, errors.New("oracle budget exhausted")
	}
	return e.inner.Query64(in)
}

func TestAttackPropagatesOracleErrors(t *testing.T) {
	lockedC, _, h := lockedInstance(t, "2A-O-A", 7)
	// The shared candidate probe, the attack's first oracle call, fails.
	orc := &errOracle{inner: oracle.MustNewSim(h), budget: 0}
	_, err := Run(Options{Locked: lockedC, Oracle: orc, Seed: 8})
	if orc.queries <= orc.budget {
		t.Fatalf("the attack finished in %d oracle calls, before the injected failure", orc.queries)
	}
	if err == nil {
		t.Error("oracle failure not propagated")
	}
}

func TestAttackLogHook(t *testing.T) {
	lockedC, inst, h := lockedInstance(t, "2A-O-A", 9)
	var lines int
	res, err := Run(Options{
		Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: 10,
		Log: func(string, ...any) { lines++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCorrectCASKey(res.Key) {
		t.Fatal("wrong key")
	}
	if lines == 0 {
		t.Error("log hook never invoked")
	}
}

// TestSimExtractorClassesSampled checks Algorithm 2's class-size
// estimate above exactClassBits: on 27-wide blocks, the sampled
// Big/Small sizes of the Lemma-1 DIP set fall within the calibration
// sweep's 0.8/1.2 shrink tolerances of the exact class counts. One
// instance has two equal classes, the other an empty one, so both the
// scale and the top-bit split are checked.
func TestSimExtractorClassesSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("walks two 2^27 block spaces")
	}
	const n = exactClassBits + 1
	equalC, equalL := widthInstance(t, n, 27)
	oneC, _, _ := lockedInstance(t, "25A-O", 27)
	oneL, err := DiscoverLayout(oneC)
	if err != nil {
		t.Fatal(err)
	}
	within := func(sampled, exact float64) bool {
		return sampled >= 0.8*exact && sampled <= 1.2*exact
	}
	for _, inst := range []struct {
		name   string
		locked *netlist.Circuit
		layout *BlockLayout
	}{{"equal-classes", equalC, equalL}, {"one-class", oneC, oneL}} {
		if got := inst.layout.N(); got != n {
			t.Fatalf("%s: block width %d, want %d", inst.name, got, n)
		}
		ext, err := NewSimExtractor(inst.locked, inst.layout, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		assign := lemma1Assign(inst.locked, inst.layout)
		dips, err := ext.DIPs(assign)
		if err != nil {
			t.Fatal(err)
		}
		exact := classSizesOf(dips)
		if exact.Big == 0 {
			t.Fatalf("%s: empty Lemma-1 DIP set", inst.name)
		}
		got, err := ext.Classes(assign)
		if err != nil {
			t.Fatal(err)
		}
		if got.Exact {
			t.Fatalf("%s: Classes is exact at n = %d, want sampled", inst.name, n)
		}
		if !within(got.Big, exact.Big) || !within(got.Small, exact.Small) {
			t.Errorf("%s: sampled Big/Small %.0f/%.0f outside 0.8–1.2× the exact %.0f/%.0f",
				inst.name, got.Big, got.Small, exact.Big, exact.Small)
		}
	}
}
