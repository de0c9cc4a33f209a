package sat

import (
	"fmt"

	"repro/internal/cnf"
)

// Status is the result of a Solve call.
type Status int

// Solve outcomes. Unknown is returned only when a conflict budget is set
// and exhausted, or when Done fires.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String returns "SAT"/"UNSAT"/"UNKNOWN".
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Stats counts solver work; useful for attack-cost reporting.
type Stats struct {
	Decisions    uint64
	Propagations uint64
	Conflicts    uint64
	Restarts     uint64
	Learned      uint64
	Removed      uint64
	SolveCalls   uint64
	// BlockingPushed/BlockingRetired count blocking clauses added through
	// PushBlocking and permanently disabled through ResetBlocking.
	BlockingPushed  uint64
	BlockingRetired uint64
	// Simplified counts clauses removed by Simplify (satisfied at level 0).
	Simplified uint64
}

// Diff returns the counter-wise difference s - prev; with prev a snapshot
// taken earlier on the same solver it attributes work to the interval
// (the engine uses it for per-phase accounting).
func (s Stats) Diff(prev Stats) Stats {
	return Stats{
		Decisions:       s.Decisions - prev.Decisions,
		Propagations:    s.Propagations - prev.Propagations,
		Conflicts:       s.Conflicts - prev.Conflicts,
		Restarts:        s.Restarts - prev.Restarts,
		Learned:         s.Learned - prev.Learned,
		Removed:         s.Removed - prev.Removed,
		SolveCalls:      s.SolveCalls - prev.SolveCalls,
		BlockingPushed:  s.BlockingPushed - prev.BlockingPushed,
		BlockingRetired: s.BlockingRetired - prev.BlockingRetired,
		Simplified:      s.Simplified - prev.Simplified,
	}
}

type clause struct {
	lits     []lit
	activity float64
	learnt   bool
}

// smallClause stores a clause of at most four literals and its literal
// array in one allocation; the binary and ternary clauses of a Tseitin
// encoding dominate every database this solver holds.
type smallClause struct {
	clause
	buf [4]lit
}

// newClause copies lits into a fresh clause.
func newClause(lits []lit, learnt bool) *clause {
	if len(lits) <= len(smallClause{}.buf) {
		sc := &smallClause{}
		sc.lits = sc.buf[:copy(sc.buf[:], lits)]
		sc.learnt = learnt
		return &sc.clause
	}
	return &clause{lits: append([]lit(nil), lits...), learnt: learnt}
}

type watcher struct {
	c       *clause
	blocker lit
}

// Solver is an incremental CDCL SAT solver. The zero value is not ready;
// use New. A Solver is not safe for concurrent use.
type Solver struct {
	// ConflictBudget, when positive, bounds the number of conflicts a
	// single Solve call may spend before returning Unknown.
	ConflictBudget uint64
	// Done, when non-nil, cancels Solve: it is read without blocking
	// before every restart and every 256 conflicts within one, and once
	// it is closed Solve returns Unknown. Nil is never cancelled.
	Done <-chan struct{}

	ok      bool // false once the formula is proven unsat at level 0
	clauses []*clause
	learnts []*clause

	watches  [][]watcher // indexed by internal lit
	vals     []lbool     // indexed by internal lit: its value (lUndef while its var is unassigned)
	polarity []bool      // saved phase per var (true = last assigned true)
	activity []float64   // VSIDS activity per var
	aux      []bool      // per var: excluded from the decision heap (see NewAuxVar)
	varInc   float64
	claInc   float64
	order    *varHeap

	trail    []lit
	trailLim []int     // trail index at each decision level
	reason   []*clause // antecedent per var
	level    []int     // decision level per var
	qhead    int

	seen      []byte
	addBuf    []lit     // scratch for AddClause
	guardBuf  []cnf.Lit // scratch for PushBlocking
	analyzeCl []lit     // scratch for analyze
	minStack  []lit     // scratch for minimization
	minMarked []int     // scratch: vars litRedundant marked seen
	clearVars []int     // vars whose seen mark must be wiped after analyze

	assumptions []lit
	conflictSet []lit // failed assumptions from the last Unsat-under-assumptions

	blockingAct   cnf.Lit // open blocking scope's activation literal (0 = none)
	blockingCount uint64  // clauses pushed into the open scope
	blockingBytes uint64  // estimated bytes of the open scope's clauses
	retiredBytes  uint64  // estimated bytes retired but not yet simplified away

	maxLearnts float64
	model      []lbool
	solveBase  uint64 // stats.Conflicts at entry to the current Solve

	stats Stats
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		ok:         true,
		varInc:     1.0,
		claInc:     1.0,
		maxLearnts: 3000,
	}
}

// NewFromFormula returns a solver loaded with the formula's clauses.
func NewFromFormula(f *cnf.Formula) *Solver {
	s := New()
	s.AddFormula(f)
	return s
}

// NumVars returns the number of variables known to the solver.
func (s *Solver) NumVars() int { return len(s.vals) / 2 }

// EnsureVars grows the variable space to cover DIMACS variables 1..n.
func (s *Solver) EnsureVars(n int) {
	for s.NumVars() < n {
		s.newVarInternal()
	}
}

// NewVar allocates a fresh variable and returns its positive literal.
func (s *Solver) NewVar() cnf.Lit {
	v := s.newVarInternal()
	return cnf.Lit(v + 1)
}

// NewAuxVar allocates a fresh variable that is permanently excluded from
// the decision heap: the solver never branches on it, so it is assigned
// only by assumptions or unit propagation. Activation and guard literals
// use this so that wrapping a formula in scoped machinery cannot perturb
// the branching order of the problem variables.
func (s *Solver) NewAuxVar() cnf.Lit {
	v := s.newVarInternal()
	s.aux[v] = true
	s.order.remove(v)
	return cnf.Lit(v + 1)
}

func (s *Solver) newVarInternal() int {
	v := s.NumVars()
	s.vals = append(s.vals, lUndef, lUndef)
	s.polarity = append(s.polarity, false)
	s.activity = append(s.activity, 0)
	s.aux = append(s.aux, false)
	s.reason = append(s.reason, nil)
	s.level = append(s.level, 0)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	if s.order == nil {
		s.order = newVarHeap(&s.activity)
	}
	s.order.push(v)
	return v
}

// Add appends a clause, discarding the satisfiability flag; together with
// NewVar it lets the solver act as a cnf.Sink so circuits can be Tseitin
// encoded directly into a live solver. Like AddClause it copies lits and
// keeps no reference to them.
func (s *Solver) Add(lits ...cnf.Lit) { s.AddClause(lits...) }

// AddFormula adds every clause of a CNF formula.
func (s *Solver) AddFormula(f *cnf.Formula) {
	s.EnsureVars(f.NumVars)
	for _, cl := range f.Clauses {
		s.AddClause(cl...)
	}
}

// AddClause adds a clause, simplifying out duplicate and tautological
// literals. It returns false if the solver is now (or already was) in an
// unsatisfiable state at level 0. Clauses may only be added between Solve
// calls (the solver backtracks to level 0 after each call). The clause
// is copied; lits is free for reuse when AddClause returns.
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Convert, sort-dedupe, drop false lits, detect tautology/satisfied.
	tmp := s.addBuf[:0]
	for _, l := range lits {
		v := l.Var()
		if v <= 0 {
			panic(fmt.Sprintf("sat: invalid literal %d", int(l)))
		}
		s.EnsureVars(v)
		tmp = append(tmp, fromCNF(l))
	}
	s.addBuf = tmp
	out := tmp[:0]
	for _, l := range tmp {
		switch s.value(l) {
		case lTrue:
			return true // clause already satisfied at level 0
		case lFalse:
			continue // literal permanently false; drop
		}
		dup, taut := false, false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == l.neg() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := newClause(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].neg()] = append(s.watches[c.lits[0].neg()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], watcher{c, c.lits[0]})
}

func (s *Solver) detach(c *clause) {
	removeWatcher(&s.watches[c.lits[0].neg()], c)
	removeWatcher(&s.watches[c.lits[1].neg()], c)
}

func removeWatcher(ws *[]watcher, c *clause) {
	list := *ws
	for i := range list {
		if list[i].c == c {
			list[i] = list[len(list)-1]
			*ws = list[:len(list)-1]
			return
		}
	}
}

func (s *Solver) value(l lit) lbool { return s.vals[l] }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

func (s *Solver) uncheckedEnqueue(l lit, from *clause) {
	v := l.vari()
	s.vals[l] = lTrue
	s.vals[l.neg()] = lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the two-watched-literal lists
// and returns the conflicting clause, or nil.
func (s *Solver) propagate() *clause {
	// vals is only written through, never regrown, while propagating.
	vals := s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		falseLit := p.neg()
		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if vals[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			lits := c.lits
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			// Invariant: lits[1] == falseLit.
			first := lits[0]
			nw := watcher{c, first}
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = nw
				j++
				continue
			}
			found := false
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].neg()] = append(s.watches[lits[1].neg()], nw)
					found = true
					break
				}
			}
			if found {
				continue // watcher moved; do not keep in this list
			}
			// Unit or conflict.
			ws[j] = nw
			j++
			if vals[first] == lFalse {
				// Conflict: keep remaining watchers and halt.
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:j]
	}
	return nil
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.vari()
		s.polarity[v] = !l.signed()
		s.vals[l] = lUndef
		s.vals[l.neg()] = lUndef
		s.reason[v] = nil
		if !s.aux[v] && !s.order.contains(v) {
			s.order.push(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		// Scaling every activity by one positive constant keeps each
		// parent at least as active as its children (rounding is
		// monotone), and the heap moves a variable only past a strictly
		// more active one, so the heap needs no repair.
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, cl := range s.learnts {
			cl.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

const (
	varDecay    = 1.0 / 0.95
	clauseDecay = 1.0 / 0.999
)

// analyze performs 1UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]lit, int) {
	learnt := s.analyzeCl[:0]
	learnt = append(learnt, litUndef) // slot 0: asserting literal
	pathC := 0
	var p lit = litUndef
	idx := len(s.trail) - 1

	c := confl
	for {
		if c.learnt {
			s.bumpClause(c)
		}
		for _, q := range c.lits {
			if p != litUndef && q == p {
				continue
			}
			v := q.vari()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.bumpVar(v)
				s.seen[v] = 1
				s.clearVars = append(s.clearVars, v)
				if s.level[v] >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for s.seen[s.trail[idx].vari()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.vari()
		c = s.reason[v]
		s.seen[v] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.neg()

	// Clause minimization: drop literals implied by the rest of the
	// clause through their reason clauses. Literals kept in learnt are
	// still marked seen from the first pass (the trail walk only clears
	// current-level vars, which never enter learnt[1:]).
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.reason[l.vari()] == nil || !s.litRedundant(l) {
			out = append(out, l)
		}
	}
	learnt = out

	// Find backtrack level: the second-highest decision level in the
	// clause, and move that literal into slot 1.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].vari()] > s.level[learnt[maxI].vari()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].vari()]
	}

	for _, v := range s.clearVars {
		s.seen[v] = 0
	}
	s.clearVars = s.clearVars[:0]
	s.analyzeCl = learnt
	return learnt, btLevel
}

// litRedundant reports whether literal l (from a learnt clause) is
// implied by the remaining marked literals, walking reason antecedents.
// Uses a conservative check: every antecedent literal must itself be
// marked or recursively redundant, aborting on decision variables.
func (s *Solver) litRedundant(l lit) bool {
	stack := s.minStack[:0]
	stack = append(stack, l)
	toClear := s.minMarked[:0]
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := s.reason[x.vari()]
		if c == nil {
			// Decision variable reached: not redundant; undo temp marks.
			for _, v := range toClear {
				s.seen[v] = 0
			}
			s.minStack, s.minMarked = stack, toClear
			return false
		}
		for _, q := range c.lits {
			v := q.vari()
			if q == x.neg() {
				continue // the literal c implied
			}
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			toClear = append(toClear, v)
			stack = append(stack, q)
		}
	}
	// Success: temp marks stand as a redundancy cache for the rest of
	// this analyze call; register them for the final wipe.
	s.clearVars = append(s.clearVars, toClear...)
	s.minStack, s.minMarked = stack, toClear
	return true
}

// analyzeFinal is called with the negation of a falsified assumption
// (i.e. a literal currently true); it collects the subset of assumptions
// that force it, populating conflictSet with those assumption literals.
func (s *Solver) analyzeFinal(p lit) {
	s.conflictSet = s.conflictSet[:0]
	s.conflictSet = append(s.conflictSet, p.neg())
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.vari()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].vari()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == nil {
			// A decision above level 0 is always an assumption here.
			s.conflictSet = append(s.conflictSet, s.trail[i])
		} else {
			for _, q := range s.reason[v].lits {
				if s.level[q.vari()] > 0 {
					s.seen[q.vari()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.vari()] = 0
}

func (s *Solver) reduceDB() {
	// Sort learnt clauses by activity ascending; drop the lower half,
	// keeping binary and locked clauses.
	learnts := s.learnts
	// Insertion-free partial selection: simple sort.
	sortClausesByActivity(learnts)
	target := len(learnts) / 2
	kept := learnts[:0]
	removed := 0
	for i, c := range learnts {
		locked := s.isLocked(c)
		if (i < target && len(c.lits) > 2 && !locked) && removed < target {
			s.detach(c)
			removed++
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	s.stats.Removed += uint64(removed)
}

func (s *Solver) isLocked(c *clause) bool {
	v := c.lits[0].vari()
	return s.reason[v] == c && s.value(c.lits[0]) == lTrue
}

func sortClausesByActivity(cs []*clause) {
	// Simple bottom-up merge would be overkill; use insertion for small,
	// shell-like gap sort otherwise. Activity ordering is heuristic, so
	// an O(n log n) pattern via sort.Slice would also do, but avoiding
	// the closure allocation keeps reduceDB cheap.
	for gap := len(cs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(cs); i++ {
			c := cs[i]
			j := i
			for j >= gap && cs[j-gap].activity > c.activity {
				cs[j] = cs[j-gap]
				j -= gap
			}
			cs[j] = c
		}
	}
}

func (s *Solver) pickBranchVar() int {
	for !s.order.empty() {
		v := s.order.pop()
		if s.value(mkLit(v, false)) == lUndef {
			return v
		}
	}
	return -1
}

// search runs CDCL until a result is found or budget conflicts pass.
func (s *Solver) search(budget uint64) Status {
	var conflicts uint64
	for {
		confl := s.propagate()
		if confl != nil {
			conflicts++
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := newClause(learnt, true)
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
				s.stats.Learned++
			}
			s.varInc *= varDecay
			s.claInc *= clauseDecay
			if conflicts%256 == 0 && s.interrupted() {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}
		if conflicts >= budget {
			s.cancelUntil(0)
			return Unknown
		}
		if float64(len(s.learnts)) >= s.maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
			s.maxLearnts *= 1.05
		}
		// Assumptions first, then heuristic decisions.
		next := litUndef
		for s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.newDecisionLevel() // dummy level keeps indices aligned
			case lFalse:
				s.analyzeFinal(p.neg())
				return Unsat
			default:
				next = p
			}
			if next != litUndef {
				break
			}
		}
		if next == litUndef {
			v := s.pickBranchVar()
			if v == -1 {
				s.storeModel()
				return Sat
			}
			s.stats.Decisions++
			next = mkLit(v, !s.polarity[v])
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, nil)
	}
}

func (s *Solver) storeModel() {
	n := s.NumVars()
	if cap(s.model) < n {
		s.model = make([]lbool, n)
	}
	s.model = s.model[:n]
	for v := range s.model {
		s.model[v] = s.value(mkLit(v, false))
	}
}

// Solve decides satisfiability of the loaded clauses under the given
// assumptions. After Sat, Model/ModelValue expose a satisfying
// assignment; after Unsat under assumptions, FailedAssumptions exposes a
// (not necessarily minimal) subset of assumptions responsible. Unknown
// means ConflictBudget ran out or Done fired; the solver is then back at
// decision level 0 and ready for the next call.
func (s *Solver) Solve(assumptions ...cnf.Lit) Status {
	s.stats.SolveCalls++
	if !s.ok {
		return Unsat
	}
	s.assumptions = s.assumptions[:0]
	for _, a := range assumptions {
		v := a.Var()
		if v <= 0 {
			panic(fmt.Sprintf("sat: invalid assumption literal %d", int(a)))
		}
		s.EnsureVars(v)
		s.assumptions = append(s.assumptions, fromCNF(a))
	}
	s.conflictSet = s.conflictSet[:0]
	s.solveBase = s.stats.Conflicts
	defer s.cancelUntil(0)

	var restarts uint64
	for {
		if s.interrupted() || s.ConflictBudget > 0 && s.stats.Conflicts >= s.solveBase+s.ConflictBudget {
			return Unknown
		}
		budget := luby(restarts+1) * 100
		if s.ConflictBudget > 0 {
			if remaining := s.solveBase + s.ConflictBudget - s.stats.Conflicts; budget > remaining {
				budget = remaining
			}
		}
		st := s.search(budget)
		if st != Unknown {
			return st
		}
		restarts++
		s.stats.Restarts++
	}
}

// interrupted reports, without blocking, whether Done has fired.
func (s *Solver) interrupted() bool {
	if s.Done == nil {
		return false
	}
	select {
	case <-s.Done:
		return true
	default:
		return false
	}
}

// Model returns the satisfying assignment from the last Sat result,
// indexed by DIMACS variable (index 0 unused).
func (s *Solver) Model() []bool {
	out := make([]bool, len(s.model)+1)
	for v, val := range s.model {
		out[v+1] = val == lTrue
	}
	return out
}

// ModelValue returns the value of a literal in the last model.
func (s *Solver) ModelValue(l cnf.Lit) bool {
	v := l.Var() - 1
	if v >= len(s.model) {
		return false
	}
	val := s.model[v] == lTrue
	if !l.Sign() {
		return !val
	}
	return val
}

// FailedAssumptions returns the subset of the last Solve call's
// assumptions that drove the Unsat answer (empty when the formula is
// unsatisfiable without assumptions).
func (s *Solver) FailedAssumptions() []cnf.Lit {
	out := make([]cnf.Lit, len(s.conflictSet))
	for i, l := range s.conflictSet {
		out[i] = toCNF(l)
	}
	return out
}

// Stats returns cumulative work counters.
func (s *Solver) Stats() Stats { return s.stats }

// Okay reports whether the clause set is still possibly satisfiable (it
// becomes false permanently once Unsat is derived without assumptions).
func (s *Solver) Okay() bool { return s.ok }
