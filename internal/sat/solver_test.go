package sat

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cnf"
)

func TestLuby(t *testing.T) {
	want := []uint64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(uint64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestTrivialSat(t *testing.T) {
	s := New()
	s.AddClause(1)
	s.AddClause(-2)
	if st := s.Solve(); st != Sat {
		t.Fatalf("status %v", st)
	}
	if !s.ModelValue(1) || s.ModelValue(2) {
		t.Error("model wrong")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	s.AddClause(1)
	if !s.AddClause(-1) {
		// already detected at add time
		if s.Okay() {
			t.Error("Okay() should be false")
		}
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("status %v", st)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Error("empty clause accepted as ok")
	}
	if st := s.Solve(); st != Unsat {
		t.Error("empty clause should force UNSAT")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	s.AddClause(1, -1)   // tautology: no-op
	s.AddClause(2, 2, 2) // duplicates collapse to unit
	if st := s.Solve(); st != Sat {
		t.Fatal("should be SAT")
	}
	if !s.ModelValue(2) {
		t.Error("unit 2 not enforced")
	}
}

// pigeonhole builds PHP(n+1, n): n+1 pigeons in n holes — classically
// UNSAT and exercises deep conflict analysis.
func pigeonhole(pigeons, holes int) *cnf.Formula {
	f := &cnf.Formula{}
	v := func(p, h int) cnf.Lit { return cnf.Lit(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		cl := make([]cnf.Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = v(p, h)
		}
		f.Add(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.Add(-v(p1, h), -v(p2, h))
			}
		}
	}
	return f
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := NewFromFormula(pigeonhole(n+1, n))
		if st := s.Solve(); st != Unsat {
			t.Errorf("PHP(%d,%d) reported %v", n+1, n, st)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	f := pigeonhole(4, 4) // equal pigeons and holes: satisfiable
	s := NewFromFormula(f)
	if st := s.Solve(); st != Sat {
		t.Fatal("PHP(4,4) should be SAT")
	}
	ok, err := f.Eval(s.Model())
	if err != nil || !ok {
		t.Errorf("model does not satisfy formula (err=%v)", err)
	}
}

func randomFormula(rng *rand.Rand, vars, clauses, width int) *cnf.Formula {
	f := &cnf.Formula{NumVars: vars}
	for i := 0; i < clauses; i++ {
		w := 1 + rng.Intn(width)
		cl := make([]cnf.Lit, w)
		for j := range cl {
			v := cnf.Lit(1 + rng.Intn(vars))
			if rng.Intn(2) == 0 {
				v = -v
			}
			cl[j] = v
		}
		f.Add(cl...)
	}
	return f
}

// TestDifferentialVsDPLL cross-checks CDCL against the independent DPLL
// reference on a large batch of random formulas around the phase
// transition, verifying SAT models against the formula directly.
func TestDifferentialVsDPLL(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		vars := 4 + rng.Intn(10)
		clauses := 2 + rng.Intn(vars*5)
		f := randomFormula(rng, vars, clauses, 3)
		want, _ := SolveDPLL(f)
		s := NewFromFormula(f)
		got := s.Solve()
		if got != want {
			t.Fatalf("trial %d: CDCL=%v DPLL=%v\n%s", trial, got, want, f.DIMACSString())
		}
		if got == Sat {
			ok, err := f.Eval(s.Model())
			if err != nil || !ok {
				t.Fatalf("trial %d: CDCL model invalid (err=%v)\n%s", trial, err, f.DIMACSString())
			}
		}
	}
}

// TestDifferentialWideClauses stresses the watched-literal machinery with
// wider clauses.
func TestDifferentialWideClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		vars := 5 + rng.Intn(8)
		f := randomFormula(rng, vars, 3+rng.Intn(40), 6)
		want, _ := SolveDPLL(f)
		s := NewFromFormula(f)
		if got := s.Solve(); got != want {
			t.Fatalf("trial %d: CDCL=%v DPLL=%v\n%s", trial, got, want, f.DIMACSString())
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	s.AddClause(-1, 3)

	if st := s.Solve(-2); st != Sat {
		t.Fatal("¬2 should be satisfiable")
	}
	if !s.ModelValue(1) || !s.ModelValue(3) {
		t.Error("¬2 forces 1 and 3")
	}
	// Incremental: same solver, contradictory assumptions.
	if st := s.Solve(-1, -2); st != Unsat {
		t.Fatal("assuming ¬1∧¬2 must be UNSAT")
	}
	if s.Okay() != true {
		t.Error("assumption UNSAT must not poison the solver")
	}
	// And satisfiable again afterwards.
	if st := s.Solve(); st != Sat {
		t.Fatal("solver unusable after assumption UNSAT")
	}
}

func TestFailedAssumptions(t *testing.T) {
	s := New()
	s.AddClause(-1, 2) // 1 → 2
	s.AddClause(-2, 3) // 2 → 3
	if st := s.Solve(1, -3); st != Unsat {
		t.Fatal("1 ∧ ¬3 must be UNSAT")
	}
	failed := s.FailedAssumptions()
	if len(failed) == 0 {
		t.Fatal("no failed assumptions reported")
	}
	// Each reported literal must be one of the assumptions.
	for _, l := range failed {
		if l != 1 && l != -3 {
			t.Errorf("unexpected failed assumption %d", l)
		}
	}
}

// TestAssumptionsDifferential compares Solve(assumps) against solving a
// copy with assumptions added as unit clauses.
func TestAssumptionsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		vars := 5 + rng.Intn(8)
		f := randomFormula(rng, vars, 3+rng.Intn(25), 3)
		nAssume := 1 + rng.Intn(3)
		assumps := make([]cnf.Lit, 0, nAssume)
		used := map[int]bool{}
		for len(assumps) < nAssume {
			v := 1 + rng.Intn(vars)
			if used[v] {
				continue
			}
			used[v] = true
			l := cnf.Lit(v)
			if rng.Intn(2) == 0 {
				l = -l
			}
			assumps = append(assumps, l)
		}
		g := f.Clone()
		for _, a := range assumps {
			g.Add(a)
		}
		want, _ := SolveDPLL(g)
		s := NewFromFormula(f)
		if got := s.Solve(assumps...); got != want {
			t.Fatalf("trial %d: assumptions=%v CDCL=%v DPLL=%v\n%s",
				trial, assumps, got, want, f.DIMACSString())
		}
	}
}

// TestIncrementalBlockingClauses drives the solver the way DIP extraction
// does: enumerate all models of a small formula by adding blocking
// clauses, and compare the model count against brute force.
func TestIncrementalBlockingClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		vars := 4 + rng.Intn(6)
		f := randomFormula(rng, vars, 2+rng.Intn(12), 3)
		want := CountModels(f)
		s := NewFromFormula(f)
		var got uint64
		for s.Solve() == Sat {
			got++
			if got > want {
				t.Fatalf("trial %d: enumerated more models than exist (%d > %d)", trial, got, want)
			}
			model := s.Model()
			block := make([]cnf.Lit, vars)
			for v := 1; v <= vars; v++ {
				if model[v] {
					block[v-1] = cnf.Lit(-v)
				} else {
					block[v-1] = cnf.Lit(v)
				}
			}
			s.AddClause(block...)
		}
		if got != want {
			t.Fatalf("trial %d: enumerated %d models, brute force says %d\n%s",
				trial, got, want, f.DIMACSString())
		}
	}
}

func TestConflictBudget(t *testing.T) {
	s := NewFromFormula(pigeonhole(9, 8))
	s.ConflictBudget = 10
	if st := s.Solve(); st != Unknown {
		t.Skipf("PHP(9,8) solved within 10 conflicts (status %v) — budget untestable here", st)
	}
	s.ConflictBudget = 0
	if st := s.Solve(); st != Unsat {
		t.Error("unbounded solve should finish UNSAT")
	}
}

// TestDonePreClosed: a closed Done stops Solve before its first search,
// so the call spends no conflicts.
func TestDonePreClosed(t *testing.T) {
	s := NewFromFormula(pigeonhole(7, 6))
	done := make(chan struct{})
	close(done)
	s.Done = done
	if st := s.Solve(); st != Unknown {
		t.Fatalf("pre-closed Done: got %v, want UNKNOWN", st)
	}
	if c := s.Stats().Conflicts; c != 0 {
		t.Fatalf("pre-closed Done spent %d conflicts, want 0", c)
	}
}

// TestDoneClosedMidSearch closes Done from another goroutine while
// Solve works on PHP(10,9) (about 144k conflicts, seconds of search):
// Solve must return Unknown promptly, and the solver must stay usable —
// a second Solve without Done still proves the formula UNSAT. Only the
// channel crosses goroutines.
func TestDoneClosedMidSearch(t *testing.T) {
	s := NewFromFormula(pigeonhole(10, 9))
	done := make(chan struct{})
	s.Done = done
	timer := time.AfterFunc(20*time.Millisecond, func() { close(done) })
	defer timer.Stop()
	start := time.Now()
	st := s.Solve()
	elapsed := time.Since(start)
	if st != Unknown {
		t.Fatalf("Solve with Done closed after 20ms: got %v, want UNKNOWN", st)
	}
	if elapsed > time.Second {
		t.Fatalf("Solve returned %v after Done closed at 20ms", elapsed)
	}
	s.Done = nil
	if st := s.Solve(); st != Unsat {
		t.Fatalf("second Solve without Done: got %v, want UNSAT", st)
	}
}

// TestSearchChecksDoneWithinRestart pins the in-search check: Luby
// restart intervals grow without bound, so a search with a huge
// conflict budget must still notice a closed Done at its 256th conflict.
func TestSearchChecksDoneWithinRestart(t *testing.T) {
	s := NewFromFormula(pigeonhole(10, 9))
	done := make(chan struct{})
	close(done)
	s.Done = done
	if st := s.search(1 << 40); st != Unknown {
		t.Fatalf("search with closed Done: got %v, want UNKNOWN", st)
	}
	if c := s.Stats().Conflicts; c != 256 {
		t.Fatalf("search stopped after %d conflicts, want 256", c)
	}
	if s.decisionLevel() != 0 {
		t.Fatalf("search left decision level %d, want 0", s.decisionLevel())
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := NewFromFormula(pigeonhole(6, 5))
	s.Solve()
	st := s.Stats()
	if st.SolveCalls != 1 || st.Conflicts == 0 || st.Propagations == 0 {
		t.Errorf("implausible stats: %+v", st)
	}
}

func TestXorChainForcesUniqueModel(t *testing.T) {
	// x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, ..., plus x1 = 1: unique model with
	// alternating values.
	const n = 20
	f := &cnf.Formula{NumVars: n}
	for i := 1; i < n; i++ {
		a, b := cnf.Lit(i), cnf.Lit(i+1)
		f.Add(a, b)
		f.Add(-a, -b)
	}
	f.Add(1)
	s := NewFromFormula(f)
	if st := s.Solve(); st != Sat {
		t.Fatal("xor chain should be SAT")
	}
	for i := 1; i <= n; i++ {
		want := i%2 == 1
		if s.ModelValue(cnf.Lit(i)) != want {
			t.Fatalf("var %d = %v, want %v", i, !want, want)
		}
	}
}

func TestModelValueNegativeLiteral(t *testing.T) {
	s := New()
	s.AddClause(1)
	s.Solve()
	if s.ModelValue(-1) {
		t.Error("ModelValue(-1) should be false when 1 is true")
	}
}

func BenchmarkSolvePigeonhole(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewFromFormula(pigeonhole(8, 7))
		if s.Solve() != Unsat {
			b.Fatal("wrong answer")
		}
	}
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	f := randomFormula(rng, 120, 480, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewFromFormula(f)
		s.Solve()
	}
}
