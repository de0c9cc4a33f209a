package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cnf"
	"repro/internal/events"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/telemetry"
)

// Portfolio defaults.
const (
	// DefaultPortfolioSize is the member count when a caller enables
	// portfolio mode without choosing one: three configurations cover
	// the classic baseline, an aggressive-restart profile, and a
	// phase-flipped profile without oversubscribing small hosts.
	DefaultPortfolioSize = 3
	// maxSharedClauseLen bounds exported learnt clauses: short clauses
	// prune the most search per byte, and an 8-literal cap keeps the
	// exchange traffic negligible next to solving.
	maxSharedClauseLen = 8
	// memberInboxCap bounds each member's import queue; a full inbox
	// drops further shares (never blocks the exporter's search).
	memberInboxCap = 512
	// phaseExportCap bounds how many clauses the whole portfolio may
	// export per attack phase, so a conflict-storm phase cannot turn
	// the exchange into the bottleneck.
	phaseExportCap = 4096
	// dedupCap bounds the exporter/importer dedup sets; when one
	// fills, it is cleared (re-sharing a clause is harmless — the
	// importer's AddClause tolerates duplicates).
	dedupCap = 1 << 15
	// defaultShrinkStreak is how many consecutive races one member must
	// win before the portfolio shrinks its race fan-out to that member
	// alone. A stable winner means the diversification isn't paying for
	// its goroutines on this instance; 16 straight wins makes a flip
	// afterwards unlikely while still adapting early in a long
	// enumeration phase. SetShrinkAfter overrides (0 disables).
	defaultShrinkStreak = 16
)

// memberOptions returns the diversification profile of portfolio member
// i. Member 0 is always the exact default configuration, so a
// one-member portfolio (and the winner bookkeeping's baseline) is the
// plain engine; the rest vary decay, restarts, polarity, and decision
// order. Profiles are deterministic in i: the same portfolio size
// always builds the same members.
func memberOptions(i int) sat.Options {
	switch i {
	case 0:
		return sat.Options{}
	case 1:
		return sat.Options{
			VSIDSDecay:      0.85,
			RestartStrategy: sat.RestartGeometric,
			PolaritySeed:    0x9e3779b97f4a7c15,
		}
	case 2:
		return sat.Options{
			VSIDSDecay:   0.99,
			PolaritySeed: 0xd1b54a32d192ed03,
			OrderSeed:    0x2545f4914f6cdd1d,
		}
	default:
		o := sat.Options{
			PolaritySeed: uint64(i) * 0x9e3779b97f4a7c15,
			OrderSeed:    uint64(i) * 0xd1b54a32d192ed03,
		}
		if i%2 == 0 {
			o.RestartStrategy = sat.RestartGeometric
		}
		if i%3 == 1 {
			o.VSIDSDecay = 0.90
		}
		return o
	}
}

// Portfolio races K diversified engine members per query over ONE
// shared encoding of the key-differential miter. Every member holds an
// identical copy of the shared clause prefix (same variable numbering,
// same clauses), built by tee-encoding once; diversification is purely
// heuristic (VSIDS decay, restart schedule, phase polarity, decision
// order), so every member computes the same answers, just at different
// speeds. Each EnumerateDIPs/Distinguish call runs all members
// concurrently under a shared cancelable context; the first member to
// finish definitively wins and cancels the rest, and short learnt
// clauses over the shared variable prefix flow between members through
// bounded non-blocking channels, so even losing members contribute
// pruning (see DESIGN.md §13 for the soundness argument).
//
// Like Engine, a Portfolio is driven from one goroutine; the internal
// fan-out is the only concurrency it creates.
type Portfolio struct {
	members []*Engine
	inbox   []chan []cnf.Lit // per-member import queues

	sharedVars int // vars allocated by the shared encode; the export filter bound

	exportSeen []map[string]struct{} // per-member exporter dedup (member goroutine only)
	importSeen []map[string]struct{} // per-member importer dedup (member goroutine only)
	phaseQuota atomic.Int64          // remaining clause exports this phase

	locked   *netlist.Circuit
	blockPos []int
	nKeys    int

	ctx   context.Context
	tel   *telemetry.Registry
	bus   *events.Bus
	phase string

	// Adaptive sizing: active lists the member indices raced per query.
	// When one member wins shrinkAfter consecutive races, active shrinks
	// to that member alone — the race is decided, so the losers' CPU is
	// pure overhead. Results are unaffected: every member computes the
	// same answers, and delegated (session/witness/sensitization) queries
	// keep going to the baseline member 0 regardless. Win-streak state is
	// only touched from the driving goroutine.
	active       []int
	shrinkAfter  int
	streakMember int
	streak       int

	encoded bool
}

// NewPortfolio prepares size diversified members for the locked
// circuit. size < 1 selects DefaultPortfolioSize. Like New, the shared
// encoding is built lazily on first query.
func NewPortfolio(locked *netlist.Circuit, blockPos []int, size int) (*Portfolio, error) {
	if size < 1 {
		size = DefaultPortfolioSize
	}
	p := &Portfolio{
		locked:   locked,
		blockPos: append([]int(nil), blockPos...),
	}
	for i := 0; i < size; i++ {
		m, err := New(locked, blockPos)
		if err != nil {
			return nil, err
		}
		m.lane = telemetry.EngineLane + 1 + i
		p.members = append(p.members, m)
	}
	p.nKeys = p.members[0].nKeys
	p.phaseQuota.Store(phaseExportCap)
	p.shrinkAfter = defaultShrinkStreak
	p.streakMember = -1
	for i := range p.members {
		p.active = append(p.active, i)
	}
	return p, nil
}

// Size returns the member count.
func (p *Portfolio) Size() int { return len(p.members) }

// ActiveSize returns how many members the next race will fan out to;
// it starts at Size and drops to 1 once the adaptive sizing decides the
// race (see SetShrinkAfter).
func (p *Portfolio) ActiveSize() int { return len(p.active) }

// SetShrinkAfter sets the consecutive-win streak after which the race
// fan-out shrinks to the streak winner alone (default 16). n <= 0
// disables adaptive sizing. A shrink is counted in
// portfolio_resized_total; calling SetShrinkAfter after a shrink does
// not restore the dropped members.
func (p *Portfolio) SetShrinkAfter(n int) { p.shrinkAfter = n }

// teeSink broadcasts one Tseitin encoding into every member solver.
// All solvers start empty and receive identical NewVar/Add sequences,
// so their variable numbering and clause databases are identical after
// the encode — the invariant that makes clause sharing sound.
type teeSink struct{ solvers []*sat.Solver }

func (t teeSink) NewVar() cnf.Lit {
	l := t.solvers[0].NewVar()
	for _, s := range t.solvers[1:] {
		if m := s.NewVar(); m != l {
			panic("engine: portfolio members diverged during shared encode")
		}
	}
	return l
}

func (t teeSink) Add(lits ...cnf.Lit) {
	for _, s := range t.solvers {
		s.Add(lits...)
	}
}

// ensure tee-encodes the miter once into all members and wires the
// clause exchange. The encode is counted once in engine_encodings_total
// regardless of member count: it is one encoding, broadcast.
func (p *Portfolio) ensure() error {
	if p.encoded {
		return nil
	}
	sp := p.tel.StartSpanLane("portfolio_encode", telemetry.EngineLane)
	defer sp.End()
	solvers := make([]*sat.Solver, len(p.members))
	for i := range p.members {
		solvers[i] = sat.NewWithOptions(memberOptions(i))
	}
	mit, err := encodeKeyMiter(p.locked, teeSink{solvers})
	if err != nil {
		return err
	}
	p.sharedVars = solvers[0].NumVars()

	p.inbox = make([]chan []cnf.Lit, len(p.members))
	p.exportSeen = make([]map[string]struct{}, len(p.members))
	p.importSeen = make([]map[string]struct{}, len(p.members))
	for i, m := range p.members {
		m.solver = solvers[i]
		m.adopt(mit)
		p.inbox[i] = make(chan []cnf.Lit, memberInboxCap)
		p.exportSeen[i] = make(map[string]struct{})
		p.importSeen[i] = make(map[string]struct{})
		p.wireExchange(i, m)
	}
	sp.SetArg("vars", strconv.Itoa(p.sharedVars))
	sp.SetArg("members", strconv.Itoa(len(p.members)))
	p.tel.Counter("engine_encodings_total").Inc()
	p.encoded = true
	return nil
}

// clauseKey renders a canonical dedup key. Literal order is as-learnt;
// two orderings of the same clause may both be shared, which costs one
// redundant import, not soundness.
func clauseKey(cl []cnf.Lit) string {
	var b strings.Builder
	for i, l := range cl {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(int(l)))
	}
	return b.String()
}

// wireExchange installs member i's export hook and import drain. Both
// closures run exclusively on whichever goroutine is currently driving
// member i (the portfolio races members on dedicated goroutines and
// joins them before returning), so the per-member dedup maps need no
// locking; cross-member traffic flows only through the channels and the
// atomic quota.
func (p *Portfolio) wireExchange(i int, m *Engine) {
	m.solver.SetLearntHook(p.sharedVars, maxSharedClauseLen, func(cl []cnf.Lit) {
		key := clauseKey(cl)
		if _, dup := p.exportSeen[i][key]; dup {
			return
		}
		if len(p.exportSeen[i]) >= dedupCap {
			p.exportSeen[i] = make(map[string]struct{})
		}
		p.exportSeen[i][key] = struct{}{}
		if p.phaseQuota.Add(-1) < 0 {
			return // phase quota spent; stop exporting until next phase
		}
		shared := false
		for j := range p.members {
			if j == i {
				continue
			}
			select {
			case p.inbox[j] <- cl:
				shared = true
			default: // inbox full: drop, never block the search
			}
		}
		if shared {
			p.tel.Counter("portfolio_clauses_shared_total").Inc()
		}
	})
	m.preSolve = func() {
		for {
			select {
			case cl := <-p.inbox[i]:
				key := clauseKey(cl)
				if _, dup := p.importSeen[i][key]; dup {
					continue
				}
				if len(p.importSeen[i]) >= dedupCap {
					p.importSeen[i] = make(map[string]struct{})
				}
				p.importSeen[i][key] = struct{}{}
				m.solver.ImportClause(cl...)
			default:
				return
			}
		}
	}
}

// SetContext bounds subsequent queries; each query derives a
// per-race cancelable child context from it for loser cancellation.
func (p *Portfolio) SetContext(ctx context.Context) { p.ctx = ctx }

// SetTelemetry attaches a metrics registry to the portfolio and every
// member (members fold their solver stats into the shared sat_* and
// engine_* families; their spans land on per-member lanes).
func (p *Portfolio) SetTelemetry(r *telemetry.Registry) {
	p.tel = r
	for _, m := range p.members {
		m.SetTelemetry(r)
	}
}

// SetEvents attaches a lifecycle event bus to the portfolio and every
// member.
func (p *Portfolio) SetEvents(b *events.Bus) {
	p.bus = b
	for _, m := range p.members {
		m.SetEvents(b)
	}
}

// SetPhase labels subsequent work and refills the per-phase clause
// export quota.
func (p *Portfolio) SetPhase(name string) {
	if name == p.phase {
		return
	}
	p.phase = name
	p.phaseQuota.Store(phaseExportCap)
	for _, m := range p.members {
		m.SetPhase(name)
	}
}

// Recycle detaches the portfolio and every member from a finished
// attack for parking in a Pool: contexts, telemetry, events and phase
// labels are cleared; the shared encoding, each member's learned
// clauses (including imports) and budgeter rates are kept.
func (p *Portfolio) Recycle() {
	p.ctx = nil
	p.SetTelemetry(nil)
	p.SetEvents(nil)
	p.SetPhase("")
	for _, m := range p.members {
		m.SetContext(nil)
		if m.solver != nil {
			m.solver.SetInterrupt(nil)
		}
	}
}

// NumKeys returns the key width of one miter copy.
func (p *Portfolio) NumKeys() int { return p.nKeys }

// BlockWidth returns the chain width n.
func (p *Portfolio) BlockWidth() int { return len(p.blockPos) }

// Stats sums the cumulative counters across members: the portfolio's
// total work, not the winner's.
func (p *Portfolio) Stats() sat.Stats {
	var out sat.Stats
	for _, m := range p.members {
		out = addStats(out, m.Stats())
	}
	return out
}

// PhaseStats merges the members' per-phase attribution, summing
// field-wise per phase.
func (p *Portfolio) PhaseStats() map[string]sat.Stats {
	out := make(map[string]sat.Stats)
	for _, m := range p.members {
		for name, st := range m.PhaseStats() {
			out[name] = addStats(out[name], st)
		}
	}
	return out
}

func addStats(a, b sat.Stats) sat.Stats {
	return sat.Stats{
		Decisions:       a.Decisions + b.Decisions,
		Propagations:    a.Propagations + b.Propagations,
		Conflicts:       a.Conflicts + b.Conflicts,
		Restarts:        a.Restarts + b.Restarts,
		Learned:         a.Learned + b.Learned,
		Removed:         a.Removed + b.Removed,
		SolveCalls:      a.SolveCalls + b.SolveCalls,
		BlockingPushed:  a.BlockingPushed + b.BlockingPushed,
		BlockingRetired: a.BlockingRetired + b.BlockingRetired,
		Simplified:      a.Simplified + b.Simplified,
		Imported:        a.Imported + b.Imported,
	}
}

// BudgetRate reports member 0's budgeter rate (the baseline
// configuration), which is what a checkpoint should carry.
func (p *Portfolio) BudgetRate() float64 { return p.members[0].BudgetRate() }

// SetBudgetRate seeds every member's budgeter.
func (p *Portfolio) SetBudgetRate(rate float64) {
	for _, m := range p.members {
		m.SetBudgetRate(rate)
	}
}

// SetCompactBytes sets every member's Simplify threshold.
func (p *Portfolio) SetCompactBytes(n uint64) {
	for _, m := range p.members {
		m.SetCompactBytes(n)
	}
}

// raceContext builds the per-query context all members share: a
// cancelable child of the portfolio context, so the first definitive
// finisher can cancel the rest without touching the caller's context.
func (p *Portfolio) raceContext() (context.Context, context.CancelFunc) {
	base := p.ctx
	if base == nil {
		base = context.Background()
	}
	return context.WithCancel(base)
}

// recordWin counts a race win for member w and advances the adaptive
// sizing: once w has won shrinkAfter races in a row (and more than one
// member is still racing), the fan-out shrinks to w alone.
func (p *Portfolio) recordWin(w int) {
	p.tel.Counter(telemetry.Label("portfolio_wins_total", "member", strconv.Itoa(w))).Inc()
	if w == p.streakMember {
		p.streak++
	} else {
		p.streakMember, p.streak = w, 1
	}
	if p.shrinkAfter > 0 && len(p.active) > 1 && p.streak >= p.shrinkAfter {
		p.active = []int{w}
		p.tel.Counter("portfolio_resized_total").Inc()
		p.bus.Publish(events.Event{
			Type:  events.TypeDistinguish,
			Phase: p.phase,
			Fields: map[string]string{
				"reason": "portfolio_resized",
				"winner": strconv.Itoa(w),
				"streak": strconv.Itoa(p.streak),
			},
		})
	}
}

// EnumerateDIPs races the full DIP enumeration across all members; see
// Engine.EnumerateDIPs for the contract.
func (p *Portfolio) EnumerateDIPs(A, B []bool, visit func(pat uint64) bool) error {
	return p.EnumerateDIPsSeeded(A, B, nil, visit)
}

// EnumerateDIPsSeeded races the seeded enumeration across all members.
// Each member enumerates the complete DIP set into a private list (the
// set is unique — keys and circuit fix it — so which member finishes
// first changes only the visit order, never the set); the winner's list
// is then replayed through visit on the caller's goroutine, honoring
// early stops. When no member completes (deadline/cancellation), the
// largest partial list is replayed and that member's error returned,
// matching the single-engine partial-enumeration contract.
func (p *Portfolio) EnumerateDIPsSeeded(A, B []bool, seed func(yield func(pat uint64) bool), visit func(pat uint64) bool) error {
	if err := p.ensure(); err != nil {
		return err
	}
	raceCtx, cancel := p.raceContext()
	defer cancel()

	type result struct {
		pats []uint64
		err  error
		ran  bool
	}
	results := make([]result, len(p.active))
	var winner atomic.Int32
	winner.Store(-1)
	var wg sync.WaitGroup
	for ri, mi := range p.active {
		wg.Add(1)
		go func(ri int, m *Engine) {
			defer wg.Done()
			m.SetContext(raceCtx)
			m.solver.SetInterrupt(func() bool { return raceCtx.Err() != nil })
			defer m.solver.SetInterrupt(nil)
			var pats []uint64
			err := m.EnumerateDIPsSeeded(A, B, seed, func(pat uint64) bool {
				pats = append(pats, pat)
				return true
			})
			results[ri] = result{pats: pats, err: err, ran: true}
			if err == nil && winner.CompareAndSwap(-1, int32(ri)) {
				cancel()
			}
		}(ri, p.members[mi])
	}
	wg.Wait()

	w := int(winner.Load())
	if w < 0 {
		// Nobody completed: replay the largest partial (ties: lowest
		// member index) and surface its error.
		best := 0
		for i := range results {
			if len(results[i].pats) > len(results[best].pats) {
				best = i
			}
		}
		for _, pat := range results[best].pats {
			if !visit(pat) {
				break
			}
		}
		return results[best].err
	}
	p.recordWin(p.active[w])
	for _, pat := range results[w].pats {
		if !visit(pat) {
			break
		}
	}
	return nil
}

// baseline prepares member 0 for a delegated (non-raced) query: the
// sequential session/witness/sensitization protocols run on the
// baseline configuration so their model trajectories are exactly the
// single engine's, while the member still benefits from clauses
// imported during earlier races.
func (p *Portfolio) baseline() (*Engine, error) {
	if err := p.ensure(); err != nil {
		return nil, err
	}
	m := p.members[0]
	m.SetContext(p.ctx)
	return m, nil
}

// OpenSession opens a scoped free-key session on the baseline member;
// see Engine.OpenSession and the Backend contract for why sessions are
// not raced.
func (p *Portfolio) OpenSession() (*Session, error) {
	m, err := p.baseline()
	if err != nil {
		return nil, err
	}
	return m.OpenSession()
}

// EnumerateWitnesses runs the bypass witness enumeration on the
// baseline member; see Engine.EnumerateWitnesses.
func (p *Portfolio) EnumerateWitnesses(keyA, keyB []bool, visit func(pattern []bool) bool) error {
	m, err := p.baseline()
	if err != nil {
		return err
	}
	return m.EnumerateWitnesses(keyA, keyB, visit)
}

// EnumerateSensitizations runs the per-bit sensitization proposal
// stream on the baseline member; see Engine.EnumerateSensitizations.
func (p *Portfolio) EnumerateSensitizations(bit int, visit func(pattern []bool) bool) error {
	m, err := p.baseline()
	if err != nil {
		return err
	}
	return m.EnumerateSensitizations(bit, visit)
}

// Distinguish races a distinguish query; see Engine.Distinguish.
func (p *Portfolio) Distinguish(keyA, keyB []bool, budget uint64) (witness []bool, equivalent bool, err error) {
	out, err := p.DistinguishEx(keyA, keyB, budget)
	if err != nil {
		return nil, false, err
	}
	return out.Witness, out.Equivalent, nil
}

// DistinguishEx races a budgeted distinguish across all members. The
// first definitive verdict (witness or proof) wins and cancels the
// rest; budget-starved and canceled members never win. If every member
// runs out of budget the query reports ReasonUnknownBudget, exactly as
// a single engine would. Conflicting definitive verdicts from two
// members — impossible while clause sharing is sound — are counted in
// portfolio_disagreements_total and alarmed on the event bus.
func (p *Portfolio) DistinguishEx(keyA, keyB []bool, budget uint64) (DistinguishOutcome, error) {
	if err := p.ensure(); err != nil {
		return DistinguishOutcome{}, err
	}
	raceCtx, cancel := p.raceContext()
	defer cancel()

	outs := make([]DistinguishOutcome, len(p.active))
	errs := make([]error, len(p.active))
	var winner atomic.Int32
	winner.Store(-1)
	var wg sync.WaitGroup
	for ri, mi := range p.active {
		wg.Add(1)
		go func(ri int, m *Engine) {
			defer wg.Done()
			m.SetContext(raceCtx)
			m.solver.SetInterrupt(func() bool { return raceCtx.Err() != nil })
			defer m.solver.SetInterrupt(nil)
			outs[ri], errs[ri] = m.DistinguishEx(keyA, keyB, budget)
			if errs[ri] == nil && outs[ri].Reason.Definitive() && winner.CompareAndSwap(-1, int32(ri)) {
				cancel()
			}
		}(ri, p.members[mi])
	}
	wg.Wait()

	w := int(winner.Load())
	if w < 0 {
		for i := range errs {
			if errs[i] != nil {
				return DistinguishOutcome{}, errs[i]
			}
		}
		// All members Unknown. Canceled from outside vs. genuinely
		// budget-starved (members counted their own starvation).
		reason := ReasonUnknownBudget
		if p.ctx != nil && p.ctx.Err() != nil {
			reason = ReasonUnknownCanceled
		}
		return DistinguishOutcome{Equivalent: true, Reason: reason}, nil
	}
	out := outs[w]
	out.Member = p.active[w]
	for i := range outs {
		if i == w || errs[i] != nil || !outs[i].Reason.Definitive() {
			continue
		}
		if outs[i].Equivalent != out.Equivalent {
			out.Disagreed = true
			p.tel.Counter("portfolio_disagreements_total").Inc()
			p.bus.Publish(events.Event{
				Type:  events.TypeDistinguish,
				Phase: p.phase,
				Fields: map[string]string{
					"reason":  "disagreement",
					"winner":  strconv.Itoa(p.active[w]),
					"dissent": strconv.Itoa(p.active[i]),
				},
			})
		}
	}
	p.recordWin(p.active[w])
	return out, nil
}

// String identifies the portfolio in logs.
func (p *Portfolio) String() string {
	return fmt.Sprintf("portfolio(%d members)", len(p.members))
}
