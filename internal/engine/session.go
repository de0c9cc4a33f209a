package engine

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// This file generalizes the engine beyond the CAS block enumeration: a
// Session is a scoped free-key query window over the persistent miter —
// the shape the classic SAT attack and AppSAT need (find a DIP with both
// keys free, constrain both key copies to the oracle's answer, extract a
// key when the DIPs run out) — and EnumerateWitnesses /
// EnumerateSensitizations cover the bypass and key-sensitization
// attacks. All of them fix structure purely with assumptions and scoped
// clauses, so a closed session leaves nothing behind but learned
// clauses: the encoding is paid once per attack and serves every phase.

// guardedSink feeds an encoding into the solver's open blocking scope:
// auxiliary variables are ordinary fresh variables, but every clause is
// guarded by the scope's activation literal, so the whole encoding is
// retracted when the scope retires. This is what lets a session add
// per-DIP IO constraints over the locked circuit without poisoning the
// engine for the next attack. Add keeps to the cnf.Sink contract:
// PushBlocking copies the clause, so lits is not retained.
type guardedSink struct{ s *sat.Solver }

func (g guardedSink) NewVar() cnf.Lit     { return g.s.NewVar() }
func (g guardedSink) Add(lits ...cnf.Lit) { g.s.PushBlocking(lits...) }

// Session is an assumption-scoped query window for oracle-guided
// attacks that treat both key copies as free variables. All constraints
// added through the session live in one blocking scope and are retired
// by Close, so the engine survives the session unmodified except for
// learned clauses (which is the point). At most one session — or one
// enumeration call — may hold the engine's blocking scope at a time.
type Session struct {
	e      *Engine
	act    cnf.Lit
	hash   *cnf.Hasher // encodes Constrain's copies into the scope; dropped at Close
	consts []cnf.Lit   // scratch: Constrain's input constants
	flush  func()
	closed bool
}

// WidthError reports an IO constraint whose input or output vector does
// not match the locked circuit.
type WidthError struct {
	Port      string // "input" or "output"
	Got, Want int
}

func (w *WidthError) Error() string {
	return fmt.Sprintf("engine: constraint %s width %d, circuit has %d %ss", w.Port, w.Got, w.Want, w.Port)
}

// OpenSession opens a scoped free-key session. The caller must Close it
// (idempotent) before issuing any other engine query.
func (e *Engine) OpenSession() (*Session, error) {
	if err := e.ensure(); err != nil {
		return nil, err
	}
	if err := e.acquireScope(); err != nil {
		return nil, err
	}
	flush := e.beginSession("engine_session")
	e.env.Tel.Counter("engine_sessions_total").Inc()
	// The session's gate table is its own: its variables are defined
	// only by clauses of this scope, which Close retires.
	hash := cnf.NewHasher(guardedSink{e.solver}, e.zero)
	return &Session{e: e, act: e.solver.BlockingLit(), hash: hash, flush: flush}, nil
}

// FindDIP searches for a distinguishing input pattern: an assignment of
// the primary inputs on which the two free-key copies can be made to
// disagree. It returns the full input vector and sat.Sat, or (nil,
// sat.Unsat) when no further DIP exists under the accumulated
// constraints, or (nil, sat.Unknown) with the context's error when the
// engine's context fired first.
func (s *Session) FindDIP() ([]bool, sat.Status, error) {
	if s.closed {
		return nil, sat.Unknown, fmt.Errorf("engine: session is closed")
	}
	e := s.e
	assume := append(e.assume[:0], s.act, e.diff)
	e.assume = assume
	st, err := e.solve(assume)
	if err != nil || st != sat.Sat {
		return nil, st, err
	}
	dip := make([]bool, len(e.inputs))
	for i, l := range e.inputs {
		dip[i] = e.solver.ModelValue(l)
	}
	return dip, sat.Sat, nil
}

// Constrain adds the classic SAT-attack IO constraint: under the DIP's
// inputs in, both hypothesis keys must reproduce the oracle's outputs
// out. Each key copy of the locked circuit is encoded through the
// session's hashed encoder with the inputs as constants, so only the
// logic the key bits still control is encoded (and gates shared with
// earlier DIPs are reused); each folded output literal is then pinned
// to the oracle's answer. An output that folds to a constant contrary
// to the oracle adds the guarded empty clause, so the session goes
// Unsat rather than failing. All clauses are scope-guarded, so Close
// retracts them. A vector of the wrong width is a *WidthError.
func (s *Session) Constrain(in, out []bool) error {
	if s.closed {
		return fmt.Errorf("engine: session is closed")
	}
	e := s.e
	if len(in) != len(e.inputs) {
		return &WidthError{Port: "input", Got: len(in), Want: len(e.inputs)}
	}
	if n := e.locked.NumOutputs(); len(out) != n {
		return &WidthError{Port: "output", Got: len(out), Want: n}
	}
	consts := s.consts[:0]
	for _, b := range in {
		consts = append(consts, s.hash.Const(b))
	}
	s.consts = consts
	for _, keys := range [2][]cnf.Lit{e.keysA, e.keysB} {
		outs, err := s.hash.Encode(e.locked, consts, keys, nil)
		if err != nil {
			return err
		}
		for i, ol := range outs {
			switch want := signLit(ol, out[i]); want {
			case s.hash.Const(true): // the DIP's inputs already force the answer
			case s.hash.Const(false):
				e.solver.PushBlocking() // ¬act: this key copy cannot match the oracle
			default:
				e.solver.PushBlocking(want)
			}
		}
	}
	e.env.Tel.Counter("engine_session_constraints_total").Inc()
	return nil
}

// ExtractKey returns the lexicographically smallest key satisfying the
// accumulated constraints: once FindDIP returns Unsat, the satisfying
// keys are exactly the functionally correct keys, so the lex-min one is
// a canonical representative — independent of clause persistence and
// of which DIP sequence produced the constraints. This is what lets
// engines with different CDCL trajectories return bit-identical keys,
// and what a brute-force enumeration of the correct keys can check
// independently. Each bit costs one incremental solve on the
// already-solved formula. Returns sat.Unknown with the context's error
// when the engine's context fired mid-extraction.
func (s *Session) ExtractKey() ([]bool, sat.Status, error) {
	if s.closed {
		return nil, sat.Unknown, fmt.Errorf("engine: session is closed")
	}
	e := s.e
	assume := append(e.assume[:0], s.act)
	st, err := e.solve(assume)
	if err != nil || st != sat.Sat {
		e.assume = assume
		return nil, st, err
	}
	key := make([]bool, e.nKeys)
	for i, l := range e.keysA {
		st, err := e.solve(append(assume, l.Neg()))
		if err != nil {
			e.assume = assume
			return nil, st, err
		}
		if st == sat.Sat {
			assume = append(assume, l.Neg())
		} else {
			key[i] = true
			assume = append(assume, l)
		}
	}
	e.assume = assume
	return key, sat.Sat, nil
}

// Close retires the session's blocking scope (retracting every
// constraint) and folds its solver work into the engine's telemetry.
// Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.hash = nil
	s.e.retireScope()
	s.e.releaseScope()
	s.flush()
}

// acquireScope reserves the engine's single blocking scope for a
// session, so a forgotten Close cannot silently corrupt a later
// enumeration (the solver has exactly one open scope at a time).
func (e *Engine) acquireScope() error {
	if e.scopeHeld {
		return fmt.Errorf("engine: blocking scope already held by an open session")
	}
	e.scopeHeld = true
	return nil
}

func (e *Engine) releaseScope() { e.scopeHeld = false }

// EnumerateWitnesses enumerates every full primary-input pattern on
// which the locked circuit disagrees under keyA versus keyB — the
// bypass attack's correction set. Both keys are fixed by assumptions
// and found witnesses are excluded with scope-guarded blocking clauses;
// visit returning false stops early. The witness set is determined by
// the circuit and the key pair, so enumeration order is the only thing
// solver heuristics can change.
func (e *Engine) EnumerateWitnesses(keyA, keyB []bool, visit func(pattern []bool) bool) error {
	if err := e.ensure(); err != nil {
		return err
	}
	if err := e.checkKeys(keyA, keyB); err != nil {
		return err
	}
	if err := e.acquireScope(); err != nil {
		return err
	}
	defer e.releaseScope()
	flush := e.beginSession("engine_witnesses")
	defer flush()
	defer e.retireScope()

	act := e.solver.BlockingLit()
	assume := e.keyAssumptions(e.assume[:0], keyA, keyB)
	assume = append(assume, act, e.diff)
	e.assume = assume

	return e.enumerate(assume, e.inputs, func(pat []bool) bool {
		e.env.Tel.Counter("engine_witnesses_total").Inc()
		return visit(pat)
	})
}

// ensureKeyEq lazily allocates one guard literal per key bit with the
// permanent clauses eq_i → (keyA_i = keyB_i). Assuming a subset of the
// guards equates exactly those bits across the copies — the
// sensitization attack's "all background bits shared" constraint —
// while leaving the clauses inert for every other query.
func (e *Engine) ensureKeyEq() {
	if e.keyEq != nil {
		return
	}
	e.keyEq = make([]cnf.Lit, e.nKeys)
	for i := range e.keyEq {
		eq := e.solver.NewAuxVar()
		e.keyEq[i] = eq
		e.solver.Add(eq.Neg(), e.keysA[i].Neg(), e.keysB[i])
		e.solver.Add(eq.Neg(), e.keysA[i], e.keysB[i].Neg())
	}
}

// EnumerateSensitizations proposes input patterns that can expose key
// bit `bit`: assignments where the two copies — sharing every key bit
// except the target, which is 0 in copy A and 1 in copy B — disagree at
// an output. Each candidate is blocked within the call's scope; visit
// returning false stops the proposal stream (the caller verifies the
// muting property by simulation and stops when satisfied).
func (e *Engine) EnumerateSensitizations(bit int, visit func(pattern []bool) bool) error {
	if err := e.ensure(); err != nil {
		return err
	}
	if bit < 0 || bit >= e.nKeys {
		return fmt.Errorf("engine: key bit %d outside width %d", bit, e.nKeys)
	}
	if err := e.acquireScope(); err != nil {
		return err
	}
	defer e.releaseScope()
	e.ensureKeyEq()
	flush := e.beginSession("engine_sensitize")
	defer flush()
	defer e.retireScope()

	act := e.solver.BlockingLit()
	assume := e.assume[:0]
	for i, eq := range e.keyEq {
		if i == bit {
			continue
		}
		assume = append(assume, eq)
	}
	assume = append(assume, e.keysA[bit].Neg(), e.keysB[bit], act, e.diff)
	e.assume = assume

	return e.enumerate(assume, e.inputs, func(pat []bool) bool {
		e.env.Tel.Counter("engine_sensitize_candidates_total").Inc()
		return visit(pat)
	})
}
