package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// enumerateScope counts the models of the loaded formula over variables
// 1..vars by assumption-driven enumeration inside one blocking scope,
// retiring the scope before returning.
func enumerateScope(t *testing.T, s *Solver, vars int) uint64 {
	t.Helper()
	act := s.BlockingLit()
	defer s.ResetBlocking()
	var count uint64
	block := make([]cnf.Lit, vars)
	for {
		switch s.Solve(act) {
		case Unsat:
			return count
		case Unknown:
			t.Fatal("Unknown without a conflict budget")
		}
		count++
		if count > 1<<16 {
			t.Fatal("enumeration runaway: blocking clauses not biting")
		}
		for v := 1; v <= vars; v++ {
			l := cnf.Lit(v)
			if s.ModelValue(l) {
				l = -l
			}
			block[v-1] = l
		}
		s.PushBlocking(block...)
	}
}

// TestBlockingScopeEnumeration checks assumption-guarded enumeration
// against brute-force model counting, twice on the same solver: the
// second pass must see the full model set again, proving ResetBlocking
// retracted the first scope's clauses.
func TestBlockingScopeEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		vars := 4 + rng.Intn(6)
		form := randomFormula(rng, vars, 3+rng.Intn(14), 3)
		want := CountModels(form)
		s := NewFromFormula(form)
		if got := enumerateScope(t, s, vars); got != want {
			t.Fatalf("trial %d: first scope enumerated %d models, brute force says %d", trial, got, want)
		}
		if got := enumerateScope(t, s, vars); got != want {
			t.Fatalf("trial %d: second scope enumerated %d models, want %d (scope retraction broken)", trial, got, want)
		}
		st := s.Stats()
		if st.BlockingPushed != 2*want {
			t.Fatalf("trial %d: BlockingPushed = %d, want %d", trial, st.BlockingPushed, 2*want)
		}
		if st.BlockingRetired != st.BlockingPushed {
			t.Fatalf("trial %d: BlockingRetired = %d, want %d", trial, st.BlockingRetired, st.BlockingPushed)
		}
	}
}

// TestSimplifyReclaimsRetiredScopes fills and retires a blocking scope,
// then checks Simplify removes the now-permanently-satisfied clause
// bodies and the solver still answers correctly (including a fresh
// enumeration on the simplified database).
func TestSimplifyReclaimsRetiredScopes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		vars := 4 + rng.Intn(6)
		form := randomFormula(rng, vars, 3+rng.Intn(14), 3)
		want := CountModels(form)
		if want == 0 {
			continue
		}
		s := NewFromFormula(form)
		if got := enumerateScope(t, s, vars); got != want {
			t.Fatalf("trial %d: enumerated %d, want %d", trial, got, want)
		}
		before := s.NumClauses()
		if !s.Simplify() {
			t.Fatalf("trial %d: Simplify reported level-0 conflict on a satisfiable formula", trial)
		}
		if s.Stats().Simplified == 0 {
			t.Fatalf("trial %d: Simplify removed nothing despite %d retired blocking clauses", trial, want)
		}
		if s.NumClauses() >= before {
			t.Fatalf("trial %d: NumClauses %d -> %d, expected shrink", trial, before, s.NumClauses())
		}
		if got := enumerateScope(t, s, vars); got != want {
			t.Fatalf("trial %d: post-Simplify enumeration %d, want %d", trial, got, want)
		}
	}
}

// TestSimplifyPreservesVerdict checks Simplify never changes the
// satisfiability verdict, on both satisfiable and unsatisfiable inputs.
func TestSimplifyPreservesVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		form := randomFormula(rng, 4+rng.Intn(8), 4+rng.Intn(24), 3)
		ref := NewFromFormula(form)
		want := ref.Solve()
		s := NewFromFormula(form)
		if s.Solve() != want {
			t.Fatal("pre-Simplify disagreement")
		}
		if want == Unsat {
			continue // solver is dead; Simplify has nothing to preserve
		}
		s.Simplify()
		if got := s.Solve(); got != want {
			t.Fatalf("trial %d: verdict %v after Simplify, want %v", trial, got, want)
		}
	}
}

// TestStatsDiff checks interval attribution: the difference of two
// snapshots equals the work done between them.
func TestStatsDiff(t *testing.T) {
	s := NewFromFormula(pigeonhole(7, 6))
	if s.Solve() != Unsat {
		t.Fatal("PHP(7,6) should be UNSAT")
	}
	snap := s.Stats()
	d := s.Stats().Diff(snap)
	if d != (Stats{}) {
		t.Fatalf("zero interval has nonzero diff: %+v", d)
	}
	s2 := NewFromFormula(pigeonhole(6, 5))
	base := s2.Stats()
	s2.Solve()
	d2 := s2.Stats().Diff(base)
	if d2.Conflicts == 0 || d2.SolveCalls != 1 {
		t.Fatalf("interval diff lost work: %+v", d2)
	}
}

// TestAddDoesNotRetainLits pins the cnf.Sink contract on the solver:
// Add, AddClause and PushBlocking copy the clause, so a caller that
// reuses its literal buffer (as every encoder does) cannot rewrite a
// stored clause. Each clause below is stored, then its buffer is
// overwritten with the all-negated literals; the stored clause must
// still forbid the all-false assignment and allow the all-true one.
func TestAddDoesNotRetainLits(t *testing.T) {
	for _, width := range []int{2, 3, 4, 5, 8} { // inline and separate literal arrays
		for _, how := range []string{"Add", "AddClause", "PushBlocking"} {
			s := New()
			s.EnsureVars(width)
			var assume []cnf.Lit
			if how == "PushBlocking" {
				assume = append(assume, s.BlockingLit())
			}
			buf := make([]cnf.Lit, width)
			for i := range buf {
				buf[i] = cnf.Lit(i + 1)
			}
			switch how {
			case "Add":
				s.Add(buf...)
			case "AddClause":
				s.AddClause(buf...)
			case "PushBlocking":
				s.PushBlocking(buf...)
			}
			allFalse := append([]cnf.Lit(nil), assume...)
			allTrue := append([]cnf.Lit(nil), assume...)
			for i := range buf {
				buf[i] = -buf[i]
				allFalse = append(allFalse, cnf.Lit(-(i + 1)))
				allTrue = append(allTrue, cnf.Lit(i+1))
			}
			if st := s.Solve(allFalse...); st != Unsat {
				t.Errorf("%s width %d: all-false assignment %v after the buffer changed, want UNSAT", how, width, st)
			}
			if st := s.Solve(allTrue...); st != Sat {
				t.Errorf("%s width %d: all-true assignment %v after the buffer changed, want SAT", how, width, st)
			}
		}
	}
}
