// Package engine hosts the persistent incremental-SAT layer of the
// attack: the key-differential miter of the locked circuit is encoded
// exactly once — through the folding, structurally hashing cnf.Hasher —
// into one long-lived CDCL instance, with the key bits of both copies
// left as free variables. Every SAT phase of the
// attack — the Lemma-1 hypothesis extractions, each blocking-clause
// enumeration step and the calibration sweep's re-extractions — is then
// an assumption-driven query against that single solver, so learned clauses
// and variable activity accumulated in one phase keep paying off in the
// next instead of dying with a per-assignment re-encode.
//
// Enumeration sessions use blocking scopes (internal/sat): per-model
// blocking clauses are guarded by an activation literal and retired as a
// group when the session ends, which retracts them soundly (clauses are
// never deleted, only permanently satisfied) and lets the next session
// start from the unblocked formula. Retired scopes are compacted away
// with Simplify once enough of them accumulate.
package engine

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/cnf"
	"repro/internal/events"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/telemetry"
)

// defaultCompactBytes is the estimated volume of retired blocking-scope
// clauses that triggers a Simplify pass over the clause database. A
// bytes threshold tracks the real memory held hostage by retired scopes
// — wide blocking clauses (one literal per chain input) reach it in
// proportionally fewer clauses than narrow ones, where the old fixed
// clause-count trigger compacted far too late on c7552-profile miters.
const defaultCompactBytes = 1 << 20

// Engine owns the persistent encoding and solver. It is not safe for
// concurrent use; the attack drives it from one goroutine (service jobs
// each build their own engine, so no state crosses job boundaries).
type Engine struct {
	locked   *netlist.Circuit
	blockPos []int

	solver *sat.Solver
	zero   cnf.Lit   // the encoding's constant false, shared by session encoders
	keysA  []cnf.Lit // copy A's key bits, in the locked circuit's key order
	keysB  []cnf.Lit // copy B's key bits
	inputs []cnf.Lit // primary inputs, in the locked circuit's input order
	block  []cnf.Lit // chain-input literals, in chain order
	diff   cnf.Lit   // the miter's disagreement output
	nKeys  int

	env *Env // never nil: New substitutes an empty environment

	sessions     uint64 // completed solve sessions, for encodings-avoided accounting
	compactBytes uint64 // retired-bytes threshold that triggers Simplify
	dbHighWater  uint64 // largest clause-DB size observed, mirrored as a gauge

	keyEq     []cnf.Lit // lazily built per-bit key-equality guards (sensitization)
	scopeHeld bool      // the single blocking scope is reserved by a Session/enumeration

	assume   []cnf.Lit // scratch: assumption vector
	blocking []cnf.Lit // scratch: per-model blocking clause
}

// Env is the per-run environment an engine shares with the rest of its
// attack: one value, handed to every component at construction, so a
// change of phase or context is seen by all of them at once. Every
// field is optional.
type Env struct {
	// Ctx bounds queries: the solver watches Ctx.Done() itself, and a
	// query it abandons returns the context's error. Nil is never
	// cancelled.
	Ctx context.Context
	// Tel receives metrics and spans: solver statistics fold into the
	// sat_* counters plus the engine_* families, and solve sessions
	// trace as spans on telemetry.EngineLane. Nil is uninstrumented.
	Tel *telemetry.Registry
	// Bus receives the lifecycle events of the components sharing the
	// environment (the engine itself publishes none). Nil publishes
	// nothing.
	Bus *events.Bus
	// Phase labels solver work for per-phase attribution: the phase arg
	// of engine-lane spans and the engine_phase_* counters ("unphased"
	// when empty).
	Phase string
}

// New prepares an engine for the locked circuit; blockPos gives the
// primary-input positions of the n chain inputs, in chain order (bit i
// of a reported pattern is chain input i). env is read at every query,
// never copied; nil means never cancelled, uninstrumented and unphased.
// The miter is built and encoded lazily on first use, so constructing
// an engine that is never queried costs nothing.
func New(locked *netlist.Circuit, blockPos []int, env *Env) (*Engine, error) {
	if locked == nil {
		return nil, fmt.Errorf("engine: locked circuit is required")
	}
	if locked.NumKeys() == 0 {
		return nil, fmt.Errorf("engine: circuit %q has no key inputs", locked.Name)
	}
	for _, pos := range blockPos {
		if pos < 0 || pos >= locked.NumInputs() {
			return nil, fmt.Errorf("engine: block position %d outside %d inputs", pos, locked.NumInputs())
		}
	}
	if env == nil {
		env = &Env{}
	}
	return &Engine{
		locked:       locked,
		blockPos:     append([]int(nil), blockPos...),
		nKeys:        locked.NumKeys(),
		compactBytes: defaultCompactBytes,
		env:          env,
	}, nil
}

// NumKeys returns the key width of one miter copy.
func (e *Engine) NumKeys() int { return e.nKeys }

// BlockWidth returns the chain width n.
func (e *Engine) BlockWidth() int { return len(e.blockPos) }

// Stats returns the persistent solver's cumulative counters (zero before
// the first query).
func (e *Engine) Stats() sat.Stats {
	if e.solver == nil {
		return sat.Stats{}
	}
	return e.solver.Stats()
}

// ensure builds the key-differential miter and encodes it into a fresh
// persistent solver on first use.
func (e *Engine) ensure() error {
	if e.solver != nil {
		return nil
	}
	tel := e.env.Tel
	sp := tel.StartSpanLane("engine_encode", telemetry.EngineLane)
	defer sp.End()
	solver := sat.New()
	m, err := encodeKeyMiter(e.locked, solver)
	if err != nil {
		return err
	}
	e.solver = solver
	e.adopt(m)
	sp.SetArg("vars", strconv.Itoa(solver.NumVars()))
	sp.SetArg("clauses", strconv.Itoa(solver.NumClauses()))
	tel.Counter("engine_encodings_total").Inc()
	return nil
}

// keyMiter holds the literals of an encoded free-key miter.
type keyMiter struct {
	zero         cnf.Lit   // constant false
	inputs       []cnf.Lit // primary inputs, shared by both copies
	keysA, keysB []cnf.Lit // each copy's key bits
	diff         cnf.Lit   // true iff the copies' outputs differ
}

// encodeKeyMiter encodes two copies of the locked circuit over shared
// input literals, each with its own free key bits, through one hashed
// encoder: every gate outside the key cone hashes to one variable, and
// outputs no key reaches drop out of diff.
func encodeKeyMiter(locked *netlist.Circuit, sink cnf.Sink) (keyMiter, error) {
	h := cnf.NewHasher(sink, 0)
	fresh := func(n int) []cnf.Lit {
		ls := make([]cnf.Lit, n)
		for i := range ls {
			ls[i] = sink.NewVar()
		}
		return ls
	}
	m := keyMiter{
		zero:   h.Const(false),
		inputs: fresh(locked.NumInputs()),
		keysA:  fresh(locked.NumKeys()),
		keysB:  fresh(locked.NumKeys()),
	}
	outsA, err := h.Encode(locked, m.inputs, m.keysA, nil)
	if err != nil {
		return keyMiter{}, err
	}
	outsB, err := h.Encode(locked, m.inputs, m.keysB, nil)
	if err != nil {
		return keyMiter{}, err
	}
	m.diff = h.Diff(outsA, outsB)
	return m, nil
}

// adopt points the engine at an encoded miter in its solver.
func (e *Engine) adopt(m keyMiter) {
	e.zero = m.zero
	e.inputs = m.inputs
	e.keysA = m.keysA
	e.keysB = m.keysB
	e.diff = m.diff
	e.block = make([]cnf.Lit, len(e.blockPos))
	for i, pos := range e.blockPos {
		e.block[i] = e.inputs[pos]
	}
}

// solve runs one assumption query under the engine's context. The
// solver watches the context itself, so Unknown means the context fired
// (returned as its error) or an explicit ConflictBudget ran out.
func (e *Engine) solve(assume []cnf.Lit) (sat.Status, error) {
	ctx := e.env.Ctx
	if ctx == nil {
		e.solver.Done = nil
		return e.solver.Solve(assume...), nil
	}
	e.solver.Done = ctx.Done()
	st := e.solver.Solve(assume...)
	if st == sat.Unknown {
		return st, ctx.Err()
	}
	return st, nil
}

// enumerate is the solve → block → visit loop every enumeration shares:
// each model's values on lits reach visit (in lits order, in a buffer
// reused across calls), and are then excluded with a scope-guarded
// blocking clause over lits. It ends on Unsat, when visit returns false,
// or with the context's error.
func (e *Engine) enumerate(assume, lits []cnf.Lit, visit func(vals []bool) bool) error {
	vals := make([]bool, len(lits))
	for {
		st, err := e.solve(assume)
		if err != nil || st != sat.Sat {
			return err
		}
		blocking := e.blocking[:0]
		for i, l := range lits {
			vals[i] = e.solver.ModelValue(l)
			blocking = append(blocking, signLit(l, !vals[i]))
		}
		e.blocking = blocking
		if !visit(vals) {
			return nil
		}
		e.solver.PushBlocking(blocking...)
	}
}

// phaseName returns the attribution key for the current phase.
func (e *Engine) phaseName() string {
	if e.env.Phase == "" {
		return "unphased"
	}
	return e.env.Phase
}

// beginSession opens a traced solve session and snapshots the solver
// counters; the returned func folds the interval into the telemetry
// counter families under the phase the session began in.
func (e *Engine) beginSession(kind string) func() {
	tel := e.env.Tel
	if e.sessions > 0 {
		// Every session after the first reuses the encoding a throwaway
		// solver would have rebuilt.
		tel.Counter("engine_encodings_avoided_total").Inc()
	}
	e.sessions++
	name := e.phaseName()
	sp := tel.StartSpanLane(kind, telemetry.EngineLane)
	sp.SetArg("phase", name)
	base := e.solver.Stats()
	return func() {
		if tel != nil {
			d := e.solver.Stats().Diff(base)
			tel.Counter("sat_conflicts_total").Add(d.Conflicts)
			tel.Counter("sat_decisions_total").Add(d.Decisions)
			tel.Counter("sat_propagations_total").Add(d.Propagations)
			tel.Counter("sat_restarts_total").Add(d.Restarts)
			tel.Counter("sat_solve_calls_total").Add(d.SolveCalls)
			tel.Counter("engine_assumption_solves_total").Add(d.SolveCalls)
			tel.Counter("engine_blocking_pushed_total").Add(d.BlockingPushed)
			tel.Counter("engine_blocking_retired_total").Add(d.BlockingRetired)
			tel.Counter(telemetry.Label("engine_phase_conflicts_total", "phase", name)).Add(d.Conflicts)
			tel.Counter(telemetry.Label("engine_phase_solves_total", "phase", name)).Add(d.SolveCalls)
			tel.Gauge("engine_clauses_retained").Set(int64(e.solver.NumClauses()))
			tel.Gauge("engine_learnts_retained").Set(int64(e.solver.NumLearnts()))
		}
		sp.End()
	}
}

// signLit orients a positive literal by a boolean.
func signLit(l cnf.Lit, v bool) cnf.Lit {
	if v {
		return l
	}
	return l.Neg()
}

// keyAssumptions appends the assumption literals fixing copy A to a and
// copy B to b.
func (e *Engine) keyAssumptions(dst []cnf.Lit, a, b []bool) []cnf.Lit {
	for i, v := range a {
		dst = append(dst, signLit(e.keysA[i], v))
	}
	for i, v := range b {
		dst = append(dst, signLit(e.keysB[i], v))
	}
	return dst
}

func (e *Engine) checkKeys(a, b []bool) error {
	if len(a) != e.nKeys || len(b) != e.nKeys {
		return fmt.Errorf("engine: key assignment lengths %d/%d, circuit has %d keys", len(a), len(b), e.nKeys)
	}
	return nil
}

// EnumerateDIPs enumerates every block-input pattern on which the locked
// circuit under key A disagrees with the circuit under key B, invoking
// visit once per pattern (bit i = chain input i, at most once per
// pattern); visit returning false stops the enumeration early. The keys
// are fixed purely by assumptions and found patterns are excluded with
// scope-guarded blocking clauses, so the session leaves no trace in the
// formula beyond (retractable, eventually compacted) satisfied clauses
// and the learned clauses that speed up the next session.
//
// With a context attached, a cancelled or expired context stops the
// enumeration with the context's error (patterns already visited remain
// valid — the set is simply incomplete).
func (e *Engine) EnumerateDIPs(A, B []bool, visit func(pat uint64) bool) error {
	return e.EnumerateDIPsSeeded(A, B, nil, visit)
}

// EnumerateDIPsSeeded is EnumerateDIPs with the session's blocking scope
// pre-charged: before solving, every pattern yielded by seed is pushed
// as a blocking clause, exactly as if it had just been enumerated — the
// mechanism a resumed attack uses to replay a checkpoint's accumulated
// DIPs into a fresh engine so enumeration continues where the crashed
// process stopped. Seeded patterns are not re-visited; only patterns
// found by the solver reach visit. A nil seed degenerates to
// EnumerateDIPs.
func (e *Engine) EnumerateDIPsSeeded(A, B []bool, seed func(yield func(pat uint64) bool), visit func(pat uint64) bool) error {
	if err := e.ensure(); err != nil {
		return err
	}
	if err := e.checkKeys(A, B); err != nil {
		return err
	}
	if err := e.acquireScope(); err != nil {
		return err
	}
	defer e.releaseScope()
	flush := e.beginSession("engine_enumerate")
	defer flush()
	defer e.retireScope()

	act := e.solver.BlockingLit()
	assume := e.keyAssumptions(e.assume[:0], A, B)
	assume = append(assume, act, e.diff)
	e.assume = assume

	if seed != nil {
		var replayed uint64
		seed(func(pat uint64) bool {
			blocking := e.blocking[:0]
			for i, l := range e.block {
				blocking = append(blocking, signLit(l, pat&(1<<uint(i)) == 0))
			}
			e.blocking = blocking
			replayed++
			return e.solver.PushBlocking(blocking...)
		})
		e.env.Tel.Counter("engine_seeded_dips_total").Add(replayed)
	}

	return e.enumerate(assume, e.block, func(vals []bool) bool {
		var pat uint64
		for i, v := range vals {
			if v {
				pat |= 1 << uint(i)
			}
		}
		return visit(pat)
	})
}

// retireScope closes the enumeration's blocking scope and compacts the
// clause database once the retired scopes hold enough bytes hostage.
// The trigger thresholds on estimated clause-database bytes rather than
// a retired-clause count, so compaction cadence adapts to clause width;
// the observed database size feeds a pair of gauges (current +
// high-water mark) for capacity planning on big miters.
func (e *Engine) retireScope() {
	tel := e.env.Tel
	e.solver.ResetBlocking()
	db := e.solver.ClauseBytes()
	tel.Gauge("sat_clause_db_bytes").Set(int64(db))
	if db > e.dbHighWater {
		e.dbHighWater = db
		tel.Gauge("sat_clause_db_bytes_hwm").Set(int64(db))
	}
	if e.solver.RetiredBytes() < e.compactBytes {
		return
	}
	sp := tel.StartSpanLane("engine_compact", telemetry.EngineLane)
	removedBefore := e.solver.Stats().Simplified
	e.solver.Simplify()
	tel.Counter("engine_simplify_runs_total").Inc()
	tel.Counter("engine_simplify_removed_total").Add(e.solver.Stats().Simplified - removedBefore)
	tel.Gauge("sat_clause_db_bytes").Set(int64(e.solver.ClauseBytes()))
	sp.End()
}

// SetCompactBytes overrides the retired-bytes Simplify threshold (tests
// use a tiny value to force compaction on small formulas). Non-positive
// values are ignored.
func (e *Engine) SetCompactBytes(n uint64) {
	if n > 0 {
		e.compactBytes = n
	}
}
