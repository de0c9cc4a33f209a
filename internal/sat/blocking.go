package sat

import "repro/internal/cnf"

// Blocking scopes give a long-lived solver retractable clause groups
// without ever deleting a clause (deletion would invalidate learned
// clauses resolved against the group). Each scope is guarded by a fresh
// activation literal act: PushBlocking stores a clause as (¬act ∨ lits…),
// so the clause only bites while act is assumed, and ResetBlocking
// retires the whole scope with the level-0 unit ¬act — every clause of
// the scope (and every learned clause that mentions ¬act) becomes
// permanently satisfied, which keeps the clause database logically
// monotone and every learned clause sound. Simplify reclaims the
// satisfied bodies when they accumulate.

// BlockingLit returns the activation literal of the open blocking scope,
// opening one (allocating a fresh variable) if none is open. Callers must
// pass this literal as an assumption to Solve for the scope's clauses to
// constrain the search. The activation variable is an aux var: the solver
// never branches on it, so queries that do not assume it cannot
// spuriously decide it true and activate the scope, and its presence
// cannot perturb the branching order of the problem variables.
func (s *Solver) BlockingLit() cnf.Lit {
	if s.blockingAct == 0 {
		s.blockingAct = s.NewAuxVar()
		s.blockingCount = 0
	}
	return s.blockingAct
}

// approxClauseBytes estimates the resident cost of one attached clause:
// the clause struct (slice header, activity, learnt flag), its literal
// array, the *clause slot in the database slice, and the two watcher
// entries. An estimate is all the Simplify trigger needs — the point is
// to scale the compaction cadence with clause width, which the old
// count-only heuristic ignored.
func approxClauseBytes(nLits int) uint64 {
	return 80 + 4*uint64(nLits)
}

// PushBlocking adds a clause to the open blocking scope (opening one if
// needed): the clause is active only under the BlockingLit assumption.
// It returns false if the solver is unsatisfiable at level 0. The clause
// is copied; lits is free for reuse when PushBlocking returns.
func (s *Solver) PushBlocking(lits ...cnf.Lit) bool {
	act := s.BlockingLit()
	guarded := append(s.guardBuf[:0], act.Neg())
	guarded = append(guarded, lits...)
	s.guardBuf = guarded
	s.blockingCount++
	s.blockingBytes += approxClauseBytes(len(guarded))
	s.stats.BlockingPushed++
	return s.AddClause(guarded...)
}

// ResetBlocking retires the open blocking scope: the activation literal
// is asserted false at level 0, permanently satisfying every clause of
// the scope, and the next BlockingLit/PushBlocking opens a fresh scope.
// No-op when no scope is open.
func (s *Solver) ResetBlocking() {
	if s.blockingAct == 0 {
		return
	}
	act := s.blockingAct
	s.blockingAct = 0
	s.stats.BlockingRetired += s.blockingCount
	s.blockingCount = 0
	s.retiredBytes += s.blockingBytes
	s.blockingBytes = 0
	s.AddClause(act.Neg())
}

// RetiredBytes returns the estimated bytes held by retired blocking
// scopes that Simplify has not yet reclaimed — the quantity a
// bytes-based compaction trigger should threshold on, since a few
// thousand wide clauses can outweigh ten times as many narrow ones.
func (s *Solver) RetiredBytes() uint64 { return s.retiredBytes }

// ClauseBytes returns the estimated resident size of the attached clause
// database (problem clauses + retained learnts). It walks both slices,
// so callers should sample it at session boundaries, not in hot loops.
func (s *Solver) ClauseBytes() uint64 {
	var total uint64
	for _, c := range s.clauses {
		total += approxClauseBytes(len(c.lits))
	}
	for _, c := range s.learnts {
		total += approxClauseBytes(len(c.lits))
	}
	return total
}

// NumClauses returns the number of attached problem clauses (units live
// on the trail and are not counted).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of retained learned clauses.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Simplify removes every clause satisfied by the level-0 assignment —
// in particular the bodies of retired blocking scopes and any learned
// clause that mentions a retired activation literal. It must be called
// between Solve calls (decision level 0) and returns false if the
// formula is unsatisfiable at level 0.
func (s *Solver) Simplify() bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: Simplify above decision level 0")
	}
	if s.propagate() != nil {
		s.ok = false
		return false
	}
	// Level-0 assignments are permanent; their antecedents are never
	// consulted again, so clearing the reasons unlocks those clauses for
	// removal and drops dangling pointers to removed clauses.
	for _, p := range s.trail {
		s.reason[p.vari()] = nil
	}
	s.clauses = s.removeSatisfied(s.clauses)
	s.learnts = s.removeSatisfied(s.learnts)
	s.retiredBytes = 0
	return true
}

// removeSatisfied detaches and drops clauses with a literal true at
// level 0, compacting in place.
func (s *Solver) removeSatisfied(cs []*clause) []*clause {
	kept := cs[:0]
	for _, c := range cs {
		sat := false
		for _, l := range c.lits {
			if s.value(l) == lTrue {
				sat = true
				break
			}
		}
		if sat {
			s.detach(c)
			s.stats.Simplified++
			continue
		}
		kept = append(kept, c)
	}
	for i := len(kept); i < len(cs); i++ {
		cs[i] = nil // release for GC
	}
	return kept
}
