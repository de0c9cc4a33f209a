// Package engine hosts the persistent incremental-SAT layer of the
// attack: the key-differential miter of the locked circuit is encoded
// exactly once — through the folding, structurally hashing cnf.Hasher —
// into one long-lived CDCL instance, with the key bits of both copies
// left as free variables. Every SAT phase of the
// attack — the Lemma-1 hypothesis extractions, each blocking-clause
// enumeration step, the calibration sweep's re-extractions, and the
// pairwise candidate distinguishing of the verifier — is then an
// assumption-driven query against that single solver, so learned clauses
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

	ctx   context.Context     // nil = never cancelled
	tel   *telemetry.Registry // nil = uninstrumented
	bus   *events.Bus         // nil = no lifecycle events
	phase string
	lane  int // trace lane for this engine's spans (portfolio members get their own)

	// preSolve, when set, runs before every Solve call at decision
	// level 0 — the portfolio drains shared-clause imports here, so
	// foreign clauses only ever enter between solves.
	preSolve func()

	bud        budgeter
	phaseStats map[string]sat.Stats

	sessions     uint64 // completed solve sessions, for encodings-avoided accounting
	compactBytes uint64 // retired-bytes threshold that triggers Simplify
	dbHighWater  uint64 // largest clause-DB size observed, mirrored as a gauge

	keyEq     []cnf.Lit // lazily built per-bit key-equality guards (sensitization)
	scopeHeld bool      // the single blocking scope is reserved by a Session/enumeration

	assume   []cnf.Lit // scratch: assumption vector
	blocking []cnf.Lit // scratch: per-model blocking clause
}

// New prepares an engine for the locked circuit; blockPos gives the
// primary-input positions of the n chain inputs, in chain order (bit i
// of a reported pattern is chain input i). The miter is built and
// encoded lazily on first use, so constructing an engine that is never
// queried costs nothing.
func New(locked *netlist.Circuit, blockPos []int) (*Engine, error) {
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
	return &Engine{
		locked:       locked,
		blockPos:     append([]int(nil), blockPos...),
		nKeys:        locked.NumKeys(),
		bud:          newBudgeter(),
		compactBytes: defaultCompactBytes,
		lane:         telemetry.EngineLane,
	}, nil
}

// SetContext bounds subsequent queries: enumeration slices its Solve
// calls with conflict budgets sized from the remaining deadline and
// checks cancellation between slices.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// SetTelemetry attaches a metrics registry: solver statistics fold into
// the sat_* counters plus the engine_* families, and solve sessions
// trace as spans on telemetry.EngineLane.
func (e *Engine) SetTelemetry(r *telemetry.Registry) { e.tel = r }

// SetEvents attaches a lifecycle event bus: each budgeted Solve slice
// that expires without a verdict publishes a budget_slice event carrying
// the expired grant and the budgeter's EWMA conflict rate — the signal
// the progress estimator uses to tell "solving hard" from "deadline
// crawling". Nil (the default) publishes nothing.
func (e *Engine) SetEvents(b *events.Bus) { e.bus = b }

// SetPhase labels subsequent solver work for per-phase attribution and
// resets the budgeter's per-phase spending cap, so a long phase cannot
// starve its successors of the remaining deadline.
func (e *Engine) SetPhase(name string) {
	if name == e.phase {
		return
	}
	e.phase = name
	e.bud.enterPhase(e.ctx)
}

// Recycle detaches the engine from a finished attack so it can be
// parked in a Pool and handed to the next one: the context, telemetry
// registry, event bus and phase label are cleared (they belong to the
// finished job), while the encoding, learned clauses, variable
// activity and the budgeter's EWMA conflict rate — the warmth the pool
// exists to preserve — are kept.
func (e *Engine) Recycle() {
	e.ctx = nil
	e.tel = nil
	e.bus = nil
	e.SetPhase("")
	if e.solver != nil {
		e.solver.SetInterrupt(nil)
	}
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

// PhaseStats returns a copy of the per-phase work attribution. Work done
// before any SetPhase call is keyed under "unphased".
func (e *Engine) PhaseStats() map[string]sat.Stats {
	out := make(map[string]sat.Stats, len(e.phaseStats))
	for k, v := range e.phaseStats {
		out[k] = v
	}
	return out
}

// ensure builds the key-differential miter and encodes it into a fresh
// persistent solver on first use.
func (e *Engine) ensure() error {
	if e.solver != nil {
		return nil
	}
	sp := e.tel.StartSpanLane("engine_encode", e.lane)
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
	e.tel.Counter("engine_encodings_total").Inc()
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

// phaseName returns the attribution key for the current phase.
func (e *Engine) phaseName() string {
	if e.phase == "" {
		return "unphased"
	}
	return e.phase
}

// beginSession opens a traced solve session and snapshots the solver
// counters; the returned func folds the interval into the per-phase map
// and the telemetry counter families.
func (e *Engine) beginSession(kind string) func() {
	if e.sessions > 0 {
		// Every session after the first reuses the encoding a throwaway
		// solver would have rebuilt.
		e.tel.Counter("engine_encodings_avoided_total").Inc()
	}
	e.sessions++
	sp := e.tel.StartSpanLane(kind, e.lane)
	sp.SetArg("phase", e.phaseName())
	base := e.solver.Stats()
	return func() {
		d := e.solver.Stats().Diff(base)
		name := e.phaseName()
		if e.phaseStats == nil {
			e.phaseStats = make(map[string]sat.Stats)
		}
		ps := e.phaseStats[name]
		e.phaseStats[name] = sat.Stats{
			Decisions:       ps.Decisions + d.Decisions,
			Propagations:    ps.Propagations + d.Propagations,
			Conflicts:       ps.Conflicts + d.Conflicts,
			Restarts:        ps.Restarts + d.Restarts,
			Learned:         ps.Learned + d.Learned,
			Removed:         ps.Removed + d.Removed,
			SolveCalls:      ps.SolveCalls + d.SolveCalls,
			BlockingPushed:  ps.BlockingPushed + d.BlockingPushed,
			BlockingRetired: ps.BlockingRetired + d.BlockingRetired,
			Simplified:      ps.Simplified + d.Simplified,
			Imported:        ps.Imported + d.Imported,
		}
		if e.tel != nil {
			e.tel.Counter("sat_conflicts_total").Add(d.Conflicts)
			e.tel.Counter("sat_decisions_total").Add(d.Decisions)
			e.tel.Counter("sat_propagations_total").Add(d.Propagations)
			e.tel.Counter("sat_restarts_total").Add(d.Restarts)
			e.tel.Counter("sat_solve_calls_total").Add(d.SolveCalls)
			e.tel.Counter("engine_assumption_solves_total").Add(d.SolveCalls)
			e.tel.Counter("engine_blocking_pushed_total").Add(d.BlockingPushed)
			e.tel.Counter("engine_blocking_retired_total").Add(d.BlockingRetired)
			e.tel.Counter(telemetry.Label("engine_phase_conflicts_total", "phase", name)).Add(d.Conflicts)
			e.tel.Counter(telemetry.Label("engine_phase_solves_total", "phase", name)).Add(d.SolveCalls)
			e.tel.Gauge("engine_clauses_retained").Set(int64(e.solver.NumClauses()))
			e.tel.Gauge("engine_learnts_retained").Set(int64(e.solver.NumLearnts()))
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
// With a context attached, Solve calls run in conflict-budgeted slices
// sized by the engine's per-phase budgeter; on expiry the enumeration
// stops and the context's error is returned (patterns already visited
// remain valid — the set is simply incomplete).
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
	defer func() { e.solver.ConflictBudget = 0 }()

	act := e.solver.BlockingLit()
	assume := e.keyAssumptions(e.assume[:0], A, B)
	assume = append(assume, act, e.diff)
	e.assume = assume

	if seed != nil {
		var replayed uint64
		seed(func(pat uint64) bool {
			blocking := e.blocking[:0]
			for i, l := range e.block {
				if pat&(1<<uint(i)) != 0 {
					blocking = append(blocking, l.Neg())
				} else {
					blocking = append(blocking, l)
				}
			}
			e.blocking = blocking
			replayed++
			return e.solver.PushBlocking(blocking...)
		})
		e.tel.Counter("engine_seeded_dips_total").Add(replayed)
	}

	for {
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		if e.preSolve != nil {
			e.preSolve()
		}
		e.solver.ConflictBudget = e.bud.slice(e.ctx, e.solver.Stats().Conflicts)
		switch e.solver.Solve(assume...) {
		case sat.Unknown:
			// Budget slice exhausted: recheck the context. Slices expire
			// at a bounded wall-clock rate (each one is sized to run for
			// a meaningful fraction of the remaining deadline), so
			// publishing per expiry cannot flood the bus.
			if e.bus != nil {
				e.bus.Publish(events.Event{
					Type:  events.TypeBudgetSlice,
					Phase: e.phase,
					Fields: map[string]string{
						"grant":     strconv.FormatUint(e.solver.ConflictBudget, 10),
						"rate":      strconv.FormatFloat(e.bud.rate, 'g', 6, 64),
						"exhausted": strconv.FormatBool(e.bud.capped && e.bud.phaseCap == 0),
					},
				})
			}
			continue
		case sat.Unsat:
			return nil
		}
		blocking := e.blocking[:0]
		var pat uint64
		for i, l := range e.block {
			if e.solver.ModelValue(l) {
				pat |= 1 << uint(i)
				blocking = append(blocking, l.Neg())
			} else {
				blocking = append(blocking, l)
			}
		}
		e.blocking = blocking
		if !visit(pat) {
			return nil
		}
		e.solver.PushBlocking(blocking...)
	}
}

// DistinguishReason types how a distinguish verdict was reached, so
// budget-starved "equivalent" answers are observable instead of silently
// identical to proofs.
type DistinguishReason string

const (
	// ReasonWitness: a concrete disagreement input was found.
	ReasonWitness DistinguishReason = "witness"
	// ReasonProved: the solver proved the keys equivalent (Unsat).
	ReasonProved DistinguishReason = "proved"
	// ReasonUnknownBudget: the conflict budget ran out; the pair is
	// reported equivalent without a proof.
	ReasonUnknownBudget DistinguishReason = "unknown_budget"
	// ReasonUnknownCanceled: the solve was interrupted by context
	// cancellation (e.g. a portfolio race already has a winner); the
	// verdict carries no information.
	ReasonUnknownCanceled DistinguishReason = "unknown_canceled"
)

// Definitive reports whether the reason carries a real verdict (witness
// or proof) rather than a budget/cancellation artifact.
func (r DistinguishReason) Definitive() bool {
	return r == ReasonWitness || r == ReasonProved
}

// DistinguishOutcome is the full result of a distinguish query.
type DistinguishOutcome struct {
	// Witness is the full primary-input vector of a disagreement, nil
	// when none was found.
	Witness []bool
	// Equivalent is true when no disagreement was found — by proof
	// (ReasonProved) or by running out of budget (see Reason).
	Equivalent bool
	// Reason types the verdict.
	Reason DistinguishReason
	// Member is the portfolio member that produced the verdict
	// (0 outside a portfolio).
	Member int
	// Disagreed is true when another portfolio member returned a
	// conflicting definitive verdict — a soundness alarm, also counted
	// in portfolio_disagreements_total.
	Disagreed bool
}

// Distinguish searches for a primary-input pattern on which the locked
// circuit behaves differently under keyA and keyB: the same persistent
// miter answers with KA/KB fixed by assumptions and the disagreement
// output assumed true. It returns (witness, false, nil) with the full
// input vector of a disagreement, or (nil, true, nil) when the keys are
// proved equivalent — or when the conflict budget runs out first, which
// callers must treat as "no difference found" exactly as with
// miter.ProveKeysEquivalentBudget (safe when candidates are only ever
// eliminated on concrete oracle disagreements). budget 0 is unbounded.
// Use DistinguishEx to tell those two "equivalent" answers apart.
func (e *Engine) Distinguish(keyA, keyB []bool, budget uint64) (witness []bool, equivalent bool, err error) {
	out, err := e.DistinguishEx(keyA, keyB, budget)
	if err != nil {
		return nil, false, err
	}
	return out.Witness, out.Equivalent, nil
}

// DistinguishEx is Distinguish with a typed outcome: budget-starved
// verdicts are marked ReasonUnknownBudget, counted in
// engine_distinguish_unknown_total, and published as a distinguish
// event, so they can no longer masquerade as proofs.
func (e *Engine) DistinguishEx(keyA, keyB []bool, budget uint64) (DistinguishOutcome, error) {
	if err := e.ensure(); err != nil {
		return DistinguishOutcome{}, err
	}
	if err := e.checkKeys(keyA, keyB); err != nil {
		return DistinguishOutcome{}, err
	}
	flush := e.beginSession("engine_distinguish")
	defer flush()
	defer func() { e.solver.ConflictBudget = 0 }()

	if e.preSolve != nil {
		e.preSolve()
	}
	assume := e.keyAssumptions(e.assume[:0], keyA, keyB)
	assume = append(assume, e.diff)
	e.assume = assume

	e.solver.ConflictBudget = budget
	switch e.solver.Solve(assume...) {
	case sat.Unknown:
		if e.ctx != nil && e.ctx.Err() != nil {
			// Canceled mid-solve (portfolio loser or deadline): not a
			// budget starvation, don't alarm on it.
			return DistinguishOutcome{Equivalent: true, Reason: ReasonUnknownCanceled}, nil
		}
		e.tel.Counter("engine_distinguish_unknown_total").Inc()
		if e.bus != nil {
			e.bus.Publish(events.Event{
				Type:  events.TypeDistinguish,
				Phase: e.phase,
				Fields: map[string]string{
					"reason": string(ReasonUnknownBudget),
					"budget": strconv.FormatUint(budget, 10),
				},
			})
		}
		return DistinguishOutcome{Equivalent: true, Reason: ReasonUnknownBudget}, nil
	case sat.Unsat:
		return DistinguishOutcome{Equivalent: true, Reason: ReasonProved}, nil
	}
	w := make([]bool, len(e.inputs))
	for i, l := range e.inputs {
		w[i] = e.solver.ModelValue(l)
	}
	return DistinguishOutcome{Witness: w, Reason: ReasonWitness}, nil
}

// retireScope closes the enumeration's blocking scope and compacts the
// clause database once the retired scopes hold enough bytes hostage.
// The trigger thresholds on estimated clause-database bytes rather than
// a retired-clause count, so compaction cadence adapts to clause width;
// the observed database size feeds a pair of gauges (current +
// high-water mark) for capacity planning on big miters.
func (e *Engine) retireScope() {
	e.solver.ResetBlocking()
	db := e.solver.ClauseBytes()
	e.tel.Gauge("sat_clause_db_bytes").Set(int64(db))
	if db > e.dbHighWater {
		e.dbHighWater = db
		e.tel.Gauge("sat_clause_db_bytes_hwm").Set(int64(db))
	}
	if e.solver.RetiredBytes() < e.compactBytes {
		return
	}
	sp := e.tel.StartSpanLane("engine_compact", e.lane)
	removedBefore := e.solver.Stats().Simplified
	e.solver.Simplify()
	e.tel.Counter("engine_simplify_runs_total").Inc()
	e.tel.Counter("engine_simplify_removed_total").Add(e.solver.Stats().Simplified - removedBefore)
	e.tel.Gauge("sat_clause_db_bytes").Set(int64(e.solver.ClauseBytes()))
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

// BudgetRate exposes the budgeter's persistent EWMA conflict rate so a
// checkpoint can carry the deadline-slicing history across a restart.
// Zero means no rate has been observed yet.
func (e *Engine) BudgetRate() float64 { return e.bud.rate }

// SetBudgetRate restores a previously observed conflict rate into the
// budgeter, so a resumed attack sizes its first slices from real history
// instead of a cold probe. Non-positive rates are ignored.
func (e *Engine) SetBudgetRate(rate float64) {
	if rate > 0 {
		e.bud.rate = rate
	}
}
