package cnf_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

func TestLitBasics(t *testing.T) {
	l := cnf.Lit(5)
	if l.Var() != 5 || !l.Sign() || l.Neg() != -5 {
		t.Error("positive literal accessors broken")
	}
	m := cnf.Lit(-7)
	if m.Var() != 7 || m.Sign() || m.Neg() != 7 {
		t.Error("negative literal accessors broken")
	}
}

func TestFormulaAddAndEval(t *testing.T) {
	f := &cnf.Formula{}
	v1 := f.NewVar()
	v2 := f.NewVar()
	f.Add(v1, v2)
	f.Add(v1.Neg(), v2.Neg())
	if f.NumVars != 2 || len(f.Clauses) != 2 {
		t.Fatalf("formula shape wrong: %d vars %d clauses", f.NumVars, len(f.Clauses))
	}
	ok, err := f.Eval([]bool{false, true, false})
	if err != nil || !ok {
		t.Error("x1∧¬x2 should satisfy XOR-ish pair")
	}
	ok, _ = f.Eval([]bool{false, true, true})
	if ok {
		t.Error("x1∧x2 must falsify second clause")
	}
	if _, err := f.Eval([]bool{false}); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestAddGrowsNumVars(t *testing.T) {
	f := &cnf.Formula{}
	f.Add(cnf.Lit(9), cnf.Lit(-4))
	if f.NumVars != 9 {
		t.Errorf("NumVars = %d, want 9", f.NumVars)
	}
}

func TestAddPanicsOnZeroLiteral(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero literal accepted")
		}
	}()
	f := &cnf.Formula{}
	f.Add(cnf.Lit(0))
}

func TestDIMACSRoundTrip(t *testing.T) {
	f := &cnf.Formula{NumVars: 4}
	f.Add(1, -2, 3)
	f.Add(-1, 4)
	f.Add(2)
	text := f.DIMACSString()
	if !strings.HasPrefix(text, "p cnf 4 3\n") {
		t.Errorf("bad header: %q", text)
	}
	back, err := cnf.ParseDIMACS(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVars != 4 || len(back.Clauses) != 3 {
		t.Fatalf("round trip shape: %d vars %d clauses", back.NumVars, len(back.Clauses))
	}
	if back.Clauses[0][1] != -2 {
		t.Error("literal lost in round trip")
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	for label, src := range map[string]string{
		"no header":  "1 2 0\n",
		"bad header": "p dnf 3 1\n1 0\n",
		"bad lit":    "p cnf 2 1\n1 x 0\n",
	} {
		if _, err := cnf.ParseDIMACS(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestParseDIMACSComments(t *testing.T) {
	src := "c a comment\np cnf 2 2\nc another\n1 -2 0\n2 0\n"
	f, err := cnf.ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 2 {
		t.Errorf("clauses = %d", len(f.Clauses))
	}
}

func TestClone(t *testing.T) {
	f := &cnf.Formula{}
	f.Add(1, 2)
	g := f.Clone()
	g.Add(-1)
	g.Clauses[0][0] = 5
	if len(f.Clauses) != 1 || f.Clauses[0][0] != 1 {
		t.Error("Clone is shallow")
	}
}

// buildMixedCircuit exercises every encodable gate type.
func buildMixedCircuit() *netlist.Circuit {
	c := netlist.New("mixed")
	a := c.MustAddInput("a")
	b := c.MustAddInput("b")
	d := c.MustAddInput("d")
	g1 := c.MustAddGate(netlist.And, "g1", a, b, d)
	g2 := c.MustAddGate(netlist.Nor, "g2", g1, d)
	g3 := c.MustAddGate(netlist.Xor, "g3", a, g2, b)
	g4 := c.MustAddGate(netlist.Xnor, "g4", g3, d)
	g5 := c.MustAddGate(netlist.Nand, "g5", g4, g1)
	g6 := c.MustAddGate(netlist.Not, "g6", g5)
	g7 := c.MustAddGate(netlist.Or, "g7", g6, a)
	g8 := c.MustAddGate(netlist.Buf, "g8", g7)
	one := c.MustAddGate(netlist.Const1, "one")
	g9 := c.MustAddGate(netlist.And, "g9", g8, one)
	c.MustMarkOutput(g9)
	c.MustMarkOutput(g3)
	return c
}

// TestTseitinFunctionalEquivalence checks, exhaustively over the input
// space, that forcing inputs via assumptions yields exactly the simulated
// output values (SAT with the right value, UNSAT with the wrong one).
func TestTseitinFunctionalEquivalence(t *testing.T) {
	c := buildMixedCircuit()
	enc, f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	solver := sat.NewFromFormula(f)
	sim := netlist.MustNewSimulator(c)
	inLits := enc.InputLits(c)
	outLits := enc.OutputLits(c)

	for x := uint64(0); x < 1<<uint(c.NumInputs()); x++ {
		in := netlist.PatternFromUint(x, c.NumInputs())
		want, err := sim.Run(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		assumps := make([]cnf.Lit, 0, len(inLits)+1)
		for i, l := range inLits {
			if in[i] {
				assumps = append(assumps, l)
			} else {
				assumps = append(assumps, l.Neg())
			}
		}
		// Consistent outputs: SAT, and model matches simulation.
		if st := solver.Solve(assumps...); st != sat.Sat {
			t.Fatalf("x=%d: inputs alone UNSAT", x)
		}
		for o, l := range outLits {
			if solver.ModelValue(l) != want[o] {
				t.Fatalf("x=%d: output %d mismatch", x, o)
			}
		}
		// Forcing any output wrong: UNSAT.
		for o, l := range outLits {
			forced := l
			if want[o] {
				forced = l.Neg()
			}
			if st := solver.Solve(append(assumps, forced)...); st != sat.Unsat {
				t.Fatalf("x=%d: wrong output %d satisfiable", x, o)
			}
		}
	}
}

// TestTseitinRandomCircuits fuzzes the encoder against simulation on
// random circuits (model-side check only, which is cheap).
func TestTseitinRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		c := randomCircuit(rng, 6, 35)
		enc, f, err := cnf.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		solver := sat.NewFromFormula(f)
		sim := netlist.MustNewSimulator(c)
		for pat := 0; pat < 10; pat++ {
			x := rng.Uint64() & ((1 << uint(c.NumInputs())) - 1)
			in := netlist.PatternFromUint(x, c.NumInputs())
			want, _ := sim.Run(in, nil)
			assumps := make([]cnf.Lit, 0, c.NumInputs())
			for i, l := range enc.InputLits(c) {
				if in[i] {
					assumps = append(assumps, l)
				} else {
					assumps = append(assumps, l.Neg())
				}
			}
			if st := solver.Solve(assumps...); st != sat.Sat {
				t.Fatalf("trial %d: UNSAT under input assumptions", trial)
			}
			for o, l := range enc.OutputLits(c) {
				if solver.ModelValue(l) != want[o] {
					t.Fatalf("trial %d pattern %d: output %d mismatch", trial, pat, o)
				}
			}
		}
	}
}

// TestTseitinModelCount verifies the encoding is a bijection between
// input assignments and models: a circuit over n inputs must have exactly
// 2^n models (every gate variable is functionally determined).
func TestTseitinModelCount(t *testing.T) {
	c := netlist.New("small")
	a := c.MustAddInput("a")
	b := c.MustAddInput("b")
	g1 := c.MustAddGate(netlist.Xor, "g1", a, b)
	g2 := c.MustAddGate(netlist.Nand, "g2", g1, a)
	c.MustMarkOutput(g2)
	_, f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := sat.CountModels(f); got != 4 {
		t.Errorf("model count = %d, want 4", got)
	}
}

func TestEncodeIntoSharesFormula(t *testing.T) {
	c1 := netlist.New("c1")
	a := c1.MustAddInput("a")
	g := c1.MustAddGate(netlist.Not, "g", a)
	c1.MustMarkOutput(g)

	f := &cnf.Formula{}
	e1, err := cnf.EncodeInto(c1, f)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cnf.EncodeInto(c1, f)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Var(g) == e2.Var(g) {
		t.Error("two encodings share variables")
	}
	// Tie the two copies' inputs together and force outputs to differ:
	// must be UNSAT (same circuit).
	in1, in2 := e1.Var(a), e2.Var(a)
	o1, o2 := e1.Var(g), e2.Var(g)
	f.Add(in1.Neg(), in2)
	f.Add(in1, in2.Neg())
	f.Add(o1, o2)
	f.Add(o1.Neg(), o2.Neg())
	s := sat.NewFromFormula(f)
	if st := s.Solve(); st != sat.Unsat {
		t.Error("identical copies with tied inputs cannot differ")
	}
}

func TestKeyLits(t *testing.T) {
	c := netlist.New("locked")
	a := c.MustAddInput("a")
	k := c.MustAddKey("k")
	g := c.MustAddGate(netlist.Xor, "g", a, k)
	c.MustMarkOutput(g)
	enc, _, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.KeyLits(c)) != 1 || len(enc.InputLits(c)) != 1 {
		t.Fatal("lit lists wrong")
	}
	if enc.KeyLits(c)[0] == enc.InputLits(c)[0] {
		t.Error("key and input share a variable")
	}
}

func TestFormulaEvalProperty(t *testing.T) {
	// Property: a clause containing literal l is satisfied by any
	// assignment that sets l true.
	f := func(v uint8, rest uint8) bool {
		va := int(v%10) + 1
		form := &cnf.Formula{}
		form.Add(cnf.Lit(va), cnf.Lit(int(rest%10)+11))
		assign := make([]bool, 22)
		assign[va] = true
		ok, err := form.Eval(assign)
		return err == nil && ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomCircuit(rng *rand.Rand, nIn, nGates int) *netlist.Circuit {
	c := netlist.New("rand")
	ids := make([]netlist.ID, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		ids = append(ids, c.MustAddInput("in"+string(rune('a'+i))))
	}
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Not}
	for i := 0; i < nGates; i++ {
		typ := types[rng.Intn(len(types))]
		var fanin []netlist.ID
		if typ == netlist.Not {
			fanin = []netlist.ID{ids[rng.Intn(len(ids))]}
		} else {
			k := 2 + rng.Intn(2)
			for j := 0; j < k; j++ {
				fanin = append(fanin, ids[rng.Intn(len(ids))])
			}
		}
		ids = append(ids, c.MustAddGate(typ, "g"+itoa(i), fanin...))
	}
	c.MustMarkOutput(ids[len(ids)-1])
	c.MustMarkOutput(ids[len(ids)-2])
	return c
}

func itoa(i int) string {
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	s := ""
	for i > 0 {
		s = string(digits[i%10]) + s
		i /= 10
	}
	return s
}

// TestFormulaAddDoesNotRetainLits pins the Sink contract on Formula:
// Add copies the clause, so reusing the literal buffer afterwards does
// not rewrite what was stored.
func TestFormulaAddDoesNotRetainLits(t *testing.T) {
	f := &cnf.Formula{}
	buf := []cnf.Lit{1, -2, 3}
	f.Add(buf...)
	buf[0], buf[1], buf[2] = -4, 5, -6
	f.Add(buf[:2]...)
	want := "p cnf 5 2\n1 -2 3 0\n-4 5 0\n"
	if got := f.DIMACSString(); got != want {
		t.Fatalf("stored clauses changed with the buffer:\n%s\nwant\n%s", got, want)
	}
}
