package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/sat"
	"repro/internal/telemetry"
)

// Options configures the DIP-learning attack.
type Options struct {
	// Locked is the reverse-engineered CAS-locked netlist (black box to
	// the attack: it is only simulated / SAT-queried).
	Locked *netlist.Circuit
	// Oracle is the activated chip.
	Oracle oracle.Oracle
	// SATWidthLimit controls the regime boundary between the SAT
	// extractor and the exhaustive simulation extractor. 0 — the
	// default — runs the simulation extractor, and SAT only on blocks
	// of at most 30 inputs that simulation refuses; a positive value
	// pins the fixed rule: SAT for blocks up to that many inputs,
	// simulation above.
	SATWidthLimit int
	// Workers is the shard worker count for the simulation extractor
	// (0 = GOMAXPROCS).
	Workers int
	// Context bounds the whole attack: cancellation and deadlines are
	// honored inside extraction shards, the SAT solver's search, the
	// calibration sweep and the oracle-verification loops. On
	// expiration the attack returns a *PartialError carrying whatever
	// structure it had recovered. Nil means context.Background().
	Context context.Context
	// Seed drives probe sampling.
	Seed int64
	// Log, when non-nil, receives progress messages (stage boundaries,
	// extraction sizes, calibration sweeps) — useful for the minutes-long
	// 64-bit-key runs.
	Log func(format string, args ...any)
	// Telemetry, when non-nil, receives the attack's metrics and phase
	// spans: the attack/hypothesis/enumerate/decode/algo1/algo2/verify
	// span tree, oracle-query and candidate counters, DIP-set sizes, and
	// (through the run environment the extractor and engine share)
	// SAT-solver and per-shard enumeration statistics. Nil — the
	// default — disables instrumentation at no measurable cost to the
	// enumeration hot path; see internal/telemetry and DESIGN.md §7.
	Telemetry *telemetry.Registry
	// Events, when non-nil, receives the attack's lifecycle events:
	// phase enter/exit, DIP progress with running counts, crossover
	// decisions, budget-starved distinguish verdicts,
	// checkpoint writes and resume replays. Publishing never blocks —
	// slow consumers lose their oldest events (see internal/events) —
	// and the disabled path costs one nil check per hook. The attack does not publish
	// the terminal done event; the owner of the run (CLI, service)
	// does, because only it knows the final disposition.
	Events *events.Bus
	// Checkpointer, when non-nil, makes attack progress durable: the
	// attack hands it snapshots (accumulated DIPs, hypothesis and phase)
	// on the writer's cadence, and the writer persists them atomically
	// off the hot path. See internal/checkpoint and DESIGN.md §11.
	Checkpointer *checkpoint.Writer
	// ResumeFrom, when non-nil, continues an interrupted attack from a
	// snapshot: it is validated against the locked netlist's bench.Hash
	// and this instance's options signature (refused with
	// ErrResumeMismatch on any mismatch), its complete DIP sets are
	// restored outright and partial ones are re-seeded into the SAT
	// engine as blocking clauses. The final key is bit-identical to an
	// uninterrupted run's.
	ResumeFrom *checkpoint.Snapshot
}

// Result reports a successful key recovery.
type Result struct {
	// Key is a correct key for the locked circuit, in its key-input
	// order. It stands for its joint-complement class: the key with
	// every bit complemented is equally correct.
	Key []bool
	// Chain is the recovered cascade configuration (under the convention
	// that block 1 of the layout is g_cas).
	Chain lock.ChainConfig
	// KeyGates1/KeyGates2 are the recovered XOR/XNOR key-gate types of
	// the two blocks, exact up to the inherent joint complement (both
	// blocks' polarities flipped together with the key, which yields an
	// indistinguishable circuit).
	KeyGates1, KeyGates2 []netlist.GateType
	// Case is 1 for AND/NAND-terminated instances, 2 for OR/NOR.
	Case int
	// AlignedDIPs is |A|, the structured class size — the quantity
	// Lemma 2's closed form predicts (1 + Σ 2^{c_i}).
	AlignedDIPs uint64
	// TotalDIPs is the full miter DIP-set size |I_l| of the successful
	// extraction.
	TotalDIPs uint64
	// Extractions counts DIP-set extractions (including the calibration
	// sweep); Calibrations counts brute-forced calibration candidates;
	// CandidatesTried counts key candidates submitted to oracle probes,
	// one per joint-complement class (two per δ).
	Extractions, Calibrations, CandidatesTried int
	// OracleQueries counts the patterns the chip evaluated for the
	// attack: 64 per shared probe (unused lanes included) plus one per
	// distinguishing witness.
	OracleQueries uint64
}

// Run mounts the DIP-learning attack. It tries both block-role
// hypotheses (Lemma 1's Case 1 and Case 2) and returns the first
// oracle-verified key.
func Run(opts Options) (*Result, error) {
	if opts.Locked == nil || opts.Oracle == nil {
		return nil, fmt.Errorf("core: Locked and Oracle are required")
	}
	layout, err := DiscoverLayout(opts.Locked)
	if err != nil {
		return nil, err
	}
	if err := layout.Validate(opts.Locked); err != nil {
		return nil, err
	}
	if layout.N()*2 != opts.Locked.NumKeys() {
		return nil, fmt.Errorf("core: layout covers %d key bits, circuit has %d", layout.N()*2, opts.Locked.NumKeys())
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	root := opts.Telemetry.StartSpan("attack")
	defer root.End()

	sim, err := netlist.NewSimulator(opts.Locked)
	if err != nil {
		return nil, err
	}
	a := &attack{opts: opts, layout: layout, sim: sim, root: root,
		env: &engine.Env{Ctx: ctx, Tel: opts.Telemetry, Bus: opts.Events},
		rng: rand.New(rand.NewSource(opts.Seed ^ 0x5eed))}
	if a.ext, err = a.chooseExtractor(); err != nil {
		return nil, err
	}
	a.cQueries = opts.Telemetry.Counter("attack_oracle_queries_total")
	a.cCandidates = opts.Telemetry.Counter("attack_candidates_total")
	a.cCalibrations = opts.Telemetry.Counter("attack_calibrations_total")
	if err := a.armDurability(); err != nil {
		return nil, err
	}
	a.installProgress()
	var firstErr error
	for _, active := range []int{1, 2} {
		if a.resumeSkip(active) {
			continue
		}
		res, err := a.runWithActive(active)
		if err == nil {
			res.Extractions = a.ext.Extractions()
			return res, nil
		}
		// An interrupted hypothesis ends the attack: the deadline or
		// oracle is gone, so trying the other hypothesis would only
		// discard the partial structure already recovered.
		if errors.Is(err, ErrPartial) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("core: attack failed under both terminator hypotheses: %w", firstErr)
}

type attack struct {
	opts   Options
	layout *BlockLayout
	ext    Extractor // *SATExtractor or *SimExtractor
	rng    *rand.Rand
	// env is the run environment the extractor and the engine share:
	// the attack's context, registry, bus and current phase.
	env *engine.Env
	// sim is the locked netlist compiled once per attack; extraction and
	// candidate probing run on it. Its Run and Run64 results share one
	// output buffer, so a caller that holds one across another run
	// copies it first.
	sim *netlist.Simulator

	root          *telemetry.Span
	cQueries      *telemetry.Counter
	cCandidates   *telemetry.Counter
	cCalibrations *telemetry.Counter

	ck     *ckptState           // non-nil when a Checkpointer is armed
	resume *checkpoint.Snapshot // pending resume state, consumed one-shot

	queries      uint64
	calibrations int
	candidates   int
}

// dipEventBatch throttles the hot-path dip_progress publisher: one
// event per this many enumerated DIPs. The batch size keeps the stream
// informative (hundreds of events on a long run) while the per-DIP
// cost stays at one nil check plus an increment.
const dipEventBatch = 256

// countQueries accounts oracle pattern evaluations in both the local
// tally and the registry.
func (a *attack) countQueries(n uint64) {
	a.queries += n
	a.cQueries.Add(n)
}

// installProgress wires the extractor's per-DIP progress hook into
// whichever consumers are armed: the checkpoint cadence, the
// attack_dips_found gauge, and the event bus, which gets a throttled
// dip_progress event — running count plus the enumerated fraction of
// the block universe — every dipEventBatch DIPs and at every
// enumeration completion. With none armed, no hook is installed and the
// extractor's per-DIP cost is a single nil check.
//
// An attack can enumerate more than once: a hypothesis misalignment
// makes algo2 restart extraction with a fresh (typically smaller)
// DIPSet, so counts are monotone only within one enumeration round.
// Each run builds its set with NewDIPSet, so a changed set pointer
// marks a new round; the round number rides in the event's fields and
// consumers reset their monotonicity baseline when it changes.
func (a *attack) installProgress() {
	bus := a.env.Bus
	if a.ck == nil && bus == nil && a.env.Tel == nil {
		return
	}
	var sinceEvent uint64
	var curSet *DIPSet
	var round uint64
	gDIPs := a.env.Tel.Gauge("attack_dips_found")
	hook := func(set *DIPSet, complete bool) {
		if set != curSet {
			curSet = set
			round++
			sinceEvent = 0
		}
		sinceEvent++
		if complete || sinceEvent >= dipEventBatch {
			sinceEvent = 0
			count := set.Count()
			gDIPs.Set(int64(count))
			if bus != nil {
				bus.Publish(events.Event{
					Type:   events.TypeDIPProgress,
					Phase:  a.env.Phase,
					Count:  count,
					Done:   count,
					Total:  set.Universe(),
					Fields: map[string]string{"round": strconv.FormatUint(round, 10)},
				})
			}
		}
		if a.ck == nil {
			return
		}
		a.ck.set, a.ck.complete = set, complete
		if complete {
			a.ck.w.Offer(a.buildSnapshot())
			return
		}
		a.ckptPump(1)
	}
	switch x := a.ext.(type) {
	case *SATExtractor:
		x.progress = hook
	case *SimExtractor:
		x.progress = hook
	}
}

// phase is one open pipeline phase: its span (nil when telemetry is
// off), the enter time that times it when there is no span, and the
// phase it interrupted.
type phase struct {
	name  string
	sp    *telemetry.Span
	start time.Time
	prev  string
}

// enterPhase opens a pipeline phase under parent: it publishes
// phase_enter, opens the phase span, labels the engine's work with the
// phase through the shared environment, and gives the checkpoint timer
// cadence a chance to fire at the boundary.
func (a *attack) enterPhase(parent *telemetry.Span, name string) *phase {
	if bus := a.env.Bus; bus != nil {
		bus.Publish(events.Event{Type: events.TypePhaseEnter, Phase: name})
	}
	p := &phase{name: name, sp: parent.Child(name), prev: a.env.Phase}
	if p.sp == nil {
		p.start = time.Now()
	}
	a.env.Phase = name
	a.ckptPump(0)
	return p
}

// exitPhase closes a phase with one duration — the span's, or the wall
// clock since enter when telemetry is off — which feeds both the
// attack_phase_seconds histogram and the phase_exit event, and restores
// the interrupted phase's label.
func (a *attack) exitPhase(p *phase) {
	var d time.Duration
	if p.sp != nil {
		d = p.sp.End()
	} else {
		d = time.Since(p.start)
	}
	a.env.Tel.Histogram(telemetry.Label("attack_phase_seconds", "phase", p.name),
		telemetry.DurationBuckets).Observe(d.Seconds())
	if bus := a.env.Bus; bus != nil {
		bus.Publish(events.Event{Type: events.TypePhaseExit, Phase: p.name,
			Fields: map[string]string{"seconds": strconv.FormatFloat(d.Seconds(), 'g', 4, 64)}})
	}
	a.env.Phase = p.prev
}

// assign builds the miter key vectors: the active block's keys are all-1
// in copy A and all-0 in copy B (Lemma 1); the other ("calibration")
// block gets the bits of c in both copies.
func (a *attack) assign(active int, c uint64) PairAssign {
	nk := a.opts.Locked.NumKeys()
	n := a.layout.N()
	out := PairAssign{A: make([]bool, nk), B: make([]bool, nk)}
	actPos, calPos := a.layout.Key1Pos, a.layout.Key2Pos
	if active == 2 {
		actPos, calPos = calPos, actPos
	}
	for i := 0; i < n; i++ {
		out.A[actPos[i]] = true
		cb := c&(1<<uint(i)) != 0
		out.A[calPos[i]] = cb
		out.B[calPos[i]] = cb
	}
	return out
}

// structured holds the decoded structure of one extraction. The DIP set
// stays in its packed bitset form; the two top-bit classes are read out
// of it as half-universe ranges (bigTop selects which half is the
// structured class), so no per-class copies are materialized.
type structured struct {
	chainH  lock.ChainConfig
	w       onePointSet // W, for membership tests
	wList   []uint64    // W, enumerated
	s       uint64      // shift: A = W ⊕ s
	dipNC   uint64      // the non-repeating DIP (w_nc ⊕ s)
	dips    *DIPSet
	bigTop  bool // structured class lives in the top half of the universe
	total   uint64
	nBig    uint64
	deltas  []uint64 // effective-misalignment candidates (empty: need calibration)
	classOK bool
}

func (st *structured) nSmall() uint64 { return st.total - st.nBig }

// halfRanges returns the [lo, hi) pattern ranges of the big and small
// classes.
func (st *structured) halfRanges() (bigLo, bigHi, smallLo, smallHi uint64) {
	half := st.dips.Universe() / 2
	if st.bigTop {
		return half, 2 * half, 0, half
	}
	return 0, half, half, 2 * half
}

// inBig reports membership of x in the structured (big) class.
func (st *structured) inBig(x uint64) bool {
	bigLo, bigHi, _, _ := st.halfRanges()
	return x >= bigLo && x < bigHi && st.dips.Contains(x)
}

// forEachBig visits the structured class in ascending order; returning
// false stops the walk.
func (st *structured) forEachBig(f func(p uint64) bool) {
	bigLo, bigHi, _, _ := st.halfRanges()
	st.dips.ForEachRange(bigLo, bigHi, f)
}

// forEachSmall visits the suppressed class in ascending order; returning
// false stops the walk.
func (st *structured) forEachSmall(f func(p uint64) bool) {
	_, _, smallLo, smallHi := st.halfRanges()
	st.dips.ForEachRange(smallLo, smallHi, f)
}

// decode runs the structural recovery on an extracted DIP set, as two
// traced phases: "decode" (Lemma 2 inverted: class split and chain
// recovery from the structured class size) and "algo1" (Algorithm 1's
// key-gate recovery: DIP_nc by the bit-flip membership rule, the shift,
// full structural validation A == W(chain) ⊕ s, and the misalignment
// candidates). parent scopes the phase spans (the hypothesis span, or
// the algo2 span for calibration re-decodes); nil disables tracing.
func (a *attack) decode(parent *telemetry.Span, dips *DIPSet) (*structured, error) {
	st, err := a.decodeChain(parent, dips)
	if err != nil {
		return nil, err
	}
	if err := a.recoverKeyGates(parent, st); err != nil {
		return nil, err
	}
	return st, nil
}

// maxOnePoints caps the aligned DIP-set size the attack will
// materialize.
const maxOnePoints = 1 << 27

// decodeChain is the Lemma-2 half of decode: split the DIP set by its
// top bit and invert the closed form |A| = 1 + Σ 2^{c_i} into the chain
// configuration.
func (a *attack) decodeChain(parent *telemetry.Span, dips *DIPSet) (st *structured, err error) {
	ph := a.enterPhase(parent, "decode")
	defer a.exitPhase(ph)
	total := dips.Count()
	if total == 0 {
		return nil, fmt.Errorf("core: miter produced no DIPs (keys behave identically)")
	}
	half := dips.Universe() / 2
	c1 := dips.CountRange(half, dips.Universe())
	c0 := total - c1
	// The top half is the structured class unless the bottom half is
	// strictly larger (preserving the former map-based tie behavior).
	bigTop := c0 <= c1
	nBig := c1
	if !bigTop {
		nBig = c0
	}
	st = &structured{dips: dips, bigTop: bigTop, total: total, nBig: nBig}

	chainH, err := ChainFromDIPCount(st.nBig, a.layout.N())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLemma2, err)
	}
	if chainH.Terminator() != lock.ChainAnd {
		return nil, fmt.Errorf("core: structured class implies an OR-terminated chain in reduced space; wrong hypothesis")
	}
	if st.nBig > maxOnePoints {
		return nil, fmt.Errorf("core: structured class has %d patterns, beyond %d", st.nBig, maxOnePoints)
	}
	st.chainH = chainH
	st.w = newOnePointSet(chainH)
	st.wList = OnePoints(chainH)
	ph.sp.SetArg("chain", chainH.String())
	ph.sp.SetArg("aligned_dips", strconv.FormatUint(st.nBig, 10))
	return st, nil
}

// recoverKeyGates is the Algorithm-1 half of decode: DIP_nc, the shift
// s (which IS the active block's key-gate polarity vector), structural
// validation, and the δ candidates. The class walks and the δ scan are
// the attack's only unbounded CPU loops outside the extractor, so they
// poll the context — a SIGINT must unwind in milliseconds even at
// block widths where the scan would otherwise run for minutes.
func (a *attack) recoverKeyGates(parent *telemetry.Span, st *structured) error {
	ph := a.enterPhase(parent, "algo1")
	defer a.exitPhase(ph)
	// DIP_nc: the unique member of the structured class that leaves it
	// when bit 0 is flipped (Algorithm 1, line 9).
	var dipNC uint64
	found := 0
	poll := ctxPoller{a: a}
	st.forEachBig(func(p uint64) bool {
		if poll.hit() {
			return false
		}
		if !st.inBig(p ^ 1) {
			dipNC = p
			found++
		}
		return true
	})
	if err := poll.err; err != nil {
		return err
	}
	if found != 1 {
		return fmt.Errorf("%w: %d non-repeating DIP candidates, want exactly 1", ErrLemma2, found)
	}
	st.dipNC = dipNC
	st.s = dipNC ^ NonControllingPattern(st.chainH)

	// Structural validation: big == W ⊕ s.
	for _, w := range st.wList {
		if poll.hit() {
			return poll.err
		}
		if !st.inBig(w ^ st.s) {
			return fmt.Errorf("%w: structured class does not match the recovered chain", ErrLemma2)
		}
	}
	if uint64(len(st.wList)) != st.nBig {
		return fmt.Errorf("%w: class size %d does not match chain one-point count %d", ErrLemma2, st.nBig, len(st.wList))
	}
	st.classOK = true
	deltas, err := a.deltaCandidates(st)
	if err != nil {
		return err
	}
	st.deltas = deltas
	ph.sp.SetArg("deltas", strconv.Itoa(len(st.deltas)))
	return nil
}

// ctxPoller amortizes context checks over tight loops: hit() reports
// cancellation, consulting the context only every pollStride calls so
// the fast path stays a counter increment.
type ctxPoller struct {
	a    *attack
	n    uint32
	err  error
	done bool
}

const pollStride = 8192

func (p *ctxPoller) hit() bool {
	if p.done {
		return true
	}
	if p.n++; p.n%pollStride == 0 {
		if err := p.a.ctxErr(); err != nil {
			p.err, p.done = err, true
			return true
		}
	}
	return false
}

// deltaCandidates recovers the effective misalignment δ between the two
// blocks' masks from the suppressed part of the small class:
// small = (W ∖ V) ⊕ ¬s with V = {w ∈ W : w⊕δ ∈ W}. Candidates are found
// by intersecting pivot translates of W and verified exactly. A nil
// candidate slice (with nil error) means the calibration sweep is
// needed; a non-nil error is always the attack context's cancellation.
func (a *attack) deltaCandidates(st *structured) ([]uint64, error) {
	n := a.layout.N()
	mask := blockMask(n)
	if st.nSmall() == 0 {
		// No suppression at all: the blocks are perfectly aligned (δ = 0).
		return []uint64{0}, nil
	}
	poll := ctxPoller{a: a}
	sSmall := ^st.s & mask
	// The theory gives small = (W ∖ V) ⊕ ¬s with V = {w : w⊕δ ∈ W}; any
	// element outside W ⊕ ¬s disproves the current hypothesis.
	present := make(map[uint64]struct{}, st.nSmall())
	mismatch := false
	st.forEachSmall(func(p uint64) bool {
		if poll.hit() {
			return false
		}
		w := p ^ sSmall
		if !st.w.has(w) {
			mismatch = true
			return false
		}
		present[w] = struct{}{}
		return true
	})
	if poll.err != nil {
		return nil, poll.err
	}
	if mismatch {
		return nil, nil
	}
	// inV marks V by position in wList (which holds no duplicates).
	var v []uint64
	inV := make([]bool, len(st.wList))
	for i, w := range st.wList {
		if _, in := present[w]; !in {
			v = append(v, w)
			inV[i] = true
		}
	}
	if len(v) == 0 {
		return nil, nil // OVL = 0: calibration sweep needed
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	// δ satisfies: w ∈ V ⇒ w⊕δ ∈ W and w ∉ V ⇒ w⊕δ ∉ W. Candidates are
	// translates of a pivot from V; a two-sided pivot prefilter (pivots
	// drawn from both V and its complement) discriminates sharply, so
	// only a handful of candidates reach the exact O(N) verification —
	// essential when V = W and the translate set would otherwise make
	// the scan quadratic in the DIP count.
	inPivots := pickPivots(v, 6)
	var outPivots []uint64
	if len(v) < len(st.wList) {
		var rest []uint64
		for w := range present {
			rest = append(rest, w)
			if len(rest) >= 64 {
				break
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
		outPivots = pickPivots(rest, 6)
	}
	var out []uint64
	verified := 0
	for _, w := range st.wList {
		if poll.hit() {
			return nil, poll.err
		}
		cand := v[0] ^ w
		ok := true
		for _, p := range inPivots {
			if !st.w.has(p ^ cand) {
				ok = false
				break
			}
		}
		for i := 0; ok && i < len(outPivots); i++ {
			if st.w.has(outPivots[i] ^ cand) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		// Exact verification of V(cand) == V.
		verified++
		if verified > 4096 {
			// Degenerate symmetry: stop enumerating rather than go
			// quadratic. The candidates found so far may miss the true
			// δ, so fall back to the calibration sweep.
			return nil, nil
		}
		match := true
		for i, x := range st.wList {
			if poll.hit() {
				return nil, poll.err
			}
			if st.w.has(x^cand) != inV[i] {
				match = false
				break
			}
		}
		if match {
			out = append(out, cand)
		}
	}
	// cand = v[0]⊕w over distinct w, so out holds no duplicates.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// pickPivots selects up to k elements spread across a sorted slice.
func pickPivots(xs []uint64, k int) []uint64 {
	if len(xs) <= k {
		return xs
	}
	out := make([]uint64, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, xs[i*(len(xs)-1)/(k-1)])
	}
	return out
}

func blockMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

func (a *attack) logf(format string, args ...any) {
	if a.opts.Log != nil {
		a.opts.Log(format, args...)
	}
}

// ctxErr reports the attack context's cancellation state.
func (a *attack) ctxErr() error { return a.env.Ctx.Err() }

// runWithActive executes the full pipeline under one block-role
// hypothesis. Each stage runs under its own phase span (enumerate →
// decode → algo1 → algo2 → verify, children of the hypothesis span);
// the algo2 span is emitted even when the δ witness made calibration
// unnecessary, with the arg skipped=true, so traces always show the
// complete pipeline shape.
func (a *attack) runWithActive(active int) (*Result, error) {
	hyp := a.root.Child("hypothesis")
	hyp.SetArg("case", strconv.Itoa(active))
	defer hyp.End()
	if err := a.ctxErr(); err != nil {
		return nil, a.partial("extract", active, nil, err)
	}
	a.logf("hypothesis active=%d: extracting DIP set (Lemma-1 assignment)", active)
	enum := a.enterPhase(hyp, "enumerate")
	dips, err := a.extractDIPs(active, 0)
	if err != nil {
		a.exitPhase(enum)
		if cerr := a.ctxErr(); cerr != nil {
			pe := a.partial("extract", active, nil, cerr)
			if dips != nil {
				pe.DIPs = dips.Count() // partially enumerated set
			}
			return nil, pe
		}
		return nil, err
	}
	enum.sp.SetArg("dips", strconv.FormatUint(dips.Count(), 10))
	a.exitPhase(enum)
	a.env.Tel.Histogram("attack_dip_set_size", telemetry.SizeBuckets).
		Observe(float64(dips.Count()))
	a.logf("extracted |I_l| = %d", dips.Count())
	st, err := a.decode(hyp, dips)
	if err != nil {
		if cerr := a.ctxErr(); cerr != nil {
			pe := a.partial("decode", active, nil, cerr)
			pe.DIPs = dips.Count()
			return nil, pe
		}
		return nil, err
	}
	a.logf("decoded: chain_h=%s |A|=%d deltas=%d", st.chainH, st.nBig, len(st.deltas))
	calib := uint64(0)
	algo2 := a.enterPhase(hyp, "algo2")
	if len(st.deltas) == 0 {
		a.logf("no misalignment witness: starting calibration sweep")
		// Algorithm 2's brute force: sweep the calibration block's key
		// bits from the last OR gate's input position upward until the
		// small class shrinks (suppression appears), then re-extract and
		// decode at that calibration.
		prev := st
		calib, st, err = a.calibrate(algo2.sp, active, st)
		if err != nil {
			a.exitPhase(algo2)
			if cerr := a.ctxErr(); cerr != nil {
				return nil, a.partial("calibrate", active, prev, cerr)
			}
			if errors.Is(err, errCalibrationBudget) {
				return nil, a.partial("calibrate", active, prev, err)
			}
			return nil, err
		}
	} else {
		algo2.sp.SetArg("skipped", "true")
	}
	a.exitPhase(algo2)
	verify := a.enterPhase(hyp, "verify")
	res, err := a.verifyCandidates(active, calib, st)
	a.exitPhase(verify)
	return res, err
}

// candidate is one key candidate: the active and calibration blocks'
// polarities, the key they build, and its build-order position (its id).
type candidate struct {
	id              int
	aActive, aCalib uint64
	key             []bool
}

// verifyCandidates confirms a key by elimination (the paper's "SAT-based
// key verification", in the FALL form): every answered oracle batch, the
// shared probe first and then eliminate's witnesses, removes each live
// candidate that disagrees with it.
func (a *attack) verifyCandidates(active int, calib uint64, st *structured) (*Result, error) {
	cands := a.buildCandidates(active, calib, st)
	a.candidates += len(cands)
	a.cCandidates.Add(uint64(len(cands)))
	probe, err := a.newProbeSet(st)
	if err != nil {
		return nil, a.verifyErr(active, st, err)
	}
	live, err := a.keepAgreeing(probe, cands)
	if err != nil {
		return nil, a.verifyErr(active, st, err)
	}
	a.logf("%d candidates, %d survived probing", len(cands), len(live))
	win, err := a.eliminate(live, st, distinguishConflictBudget)
	if err != nil {
		return nil, a.verifyErr(active, st, err)
	}
	if win == nil {
		// Every candidate of a decode that passed the Lemma-2 structural
		// checks was killed by a concrete oracle disagreement. On a correct
		// oracle that is impossible (the true key's class is a candidate
		// and never disagrees), so diagnose the oracle instead of guessing.
		return nil, fmt.Errorf("%w: %d candidates eliminated", ErrOracleInconsistent, len(cands))
	}
	return a.report(active, st, win), nil
}

// buildCandidates emits one candidate per joint-complement class, two
// per δ: the active block's polarity is s, and the inter-block offset is
// δ⊕c or its complement (branch ambiguity of the class split). Key gates
// are XOR/XNOR, so complementing every key bit of both blocks equals
// complementing the block input: buildKey(active, ¬s, ¬c) unlocks
// exactly when buildKey(active, s, c) does.
func (a *attack) buildCandidates(active int, calib uint64, st *structured) []candidate {
	mask := blockMask(a.layout.N())
	s := st.s & mask
	var cands []candidate
	for _, delta := range st.deltas {
		for _, d := range []uint64{delta ^ calib, (^delta & mask) ^ calib} {
			cands = append(cands, candidate{id: len(cands), aActive: s, aCalib: s ^ d,
				key: a.buildKey(active, s, s^d)})
		}
	}
	return cands
}

// eliminate confirms one of the live candidates by elimination. live[0]
// is distinguished from the others in order; the first witness is put
// to the oracle once and every live candidate that disagrees with the
// answer is removed. live[0] wins once every other live candidate is
// proved equivalent to it. A candidate dies only on an oracle
// disagreement, and no verdict rests on an Unknown: decide re-asks a
// starved pair, and a pair it cannot settle fails with errUndecided
// instead of naming a key. nil means none is left.
func (a *attack) eliminate(live []candidate, st *structured, budget uint64) (*candidate, error) {
	head := -1
	var proved map[int]bool // ids proved equivalent to head
	for len(live) > 0 {
		if live[0].id != head {
			head, proved = live[0].id, map[int]bool{}
		}
		var witness []bool
		rival := -1
		for _, c := range live[1:] {
			if proved[c.id] {
				continue
			}
			if err := a.ctxErr(); err != nil {
				return nil, err
			}
			w, err := a.decide(&live[0], &c, budget)
			if err != nil {
				return nil, err
			}
			if w != nil {
				witness, rival = w, c.id
				break
			}
			proved[c.id] = true
		}
		if witness == nil {
			a.logf("candidate %d confirmed: proved equivalent to the %d other survivors (chain %s)", head, len(live)-1, st.chainH)
			return &live[0], nil
		}
		want, err := a.opts.Oracle.Query(witness)
		if err != nil {
			return nil, err
		}
		a.countQueries(1)
		answer := &probeSet{in: keyWords(witness), want: keyWords(want), lanes: 1}
		if live, err = a.keepAgreeing(answer, live); err != nil {
			return nil, err
		}
		// One answer cannot agree with two keys that the keyed miter has
		// shown to differ on the witness, so both survive only if the
		// simulator does not confirm the witness. Guard progress anyway:
		// such a witness ends the hypothesis instead of being re-asked
		// forever.
		if len(live) > 0 && live[0].id == head && slices.ContainsFunc(live, func(c candidate) bool { return c.id == rival }) {
			return nil, fmt.Errorf("%w: candidates %d and %d both survive the oracle's answer to their witness", errUndecided, head, rival)
		}
	}
	return nil, nil
}

// decide settles one candidate pair without resting on an Unknown: a
// starved distinguish is re-asked at distinguishBudgetGrowth times the
// budget, checking the context between rounds, until the prover answers
// or the budget has reached distinguishBudgetCeiling. It returns a
// witness, nil when the pair is proved equivalent, or errUndecided
// naming both candidates.
func (a *attack) decide(x, y *candidate, budget uint64) ([]bool, error) {
	for {
		status, w, err := a.distinguish(x.key, y.key, budget)
		if err != nil || status != sat.Unknown {
			return w, err
		}
		if budget >= distinguishBudgetCeiling {
			return nil, fmt.Errorf("%w: candidates %d and %d still unknown at %d conflicts", errUndecided, x.id, y.id, budget)
		}
		budget = min(budget*distinguishBudgetGrowth, distinguishBudgetCeiling)
		if err := a.ctxErr(); err != nil {
			return nil, err
		}
	}
}

// keepAgreeing filters cands in place down to the candidates that pass
// the answered batch p.
func (a *attack) keepAgreeing(p *probeSet, cands []candidate) ([]candidate, error) {
	out := cands[:0]
	for _, c := range cands {
		if err := a.ctxErr(); err != nil {
			return nil, err
		}
		ok, err := a.passesProbes(p, c.key)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, c)
		}
	}
	return out, nil
}

// verifyErr classifies an error raised during candidate verification:
// cancellation, permanent oracle failures and undecided candidate pairs
// become PartialError (the structure is already decoded; only the
// adjudication is missing), anything else passes through.
func (a *attack) verifyErr(active int, st *structured, err error) error {
	if cerr := a.ctxErr(); cerr != nil {
		return a.partial("verify", active, st, cerr)
	}
	if errors.Is(err, oracle.ErrPermanent) || errors.Is(err, errUndecided) {
		return a.partial("verify", active, st, err)
	}
	return err
}

// distinguishConflictBudget bounds the first SAT distinguishing query
// of a candidate pair. A pair that exhausts it is re-asked at
// distinguishBudgetGrowth times the budget, up to
// distinguishBudgetCeiling conflicts, and left undecided past that.
const (
	distinguishConflictBudget = 200000
	distinguishBudgetGrowth   = 4
	distinguishBudgetCeiling  = 1 << 22
)

// errUndecided ends a hypothesis whose elimination cannot single out a
// key: a candidate pair the prover leaves Unknown at the budget ceiling,
// or a witness the simulator does not confirm, whose oracle answer
// therefore removes neither side. Either candidate could be the wrong
// one.
var errUndecided = errors.New("core: candidate pair left undecided")

// distinguish looks for an input on which the locked circuit behaves
// differently under the two keys with one query to the keyed,
// structurally hashed miter (miter.DistinguishKeys): both keys are
// folded in as constants, so only their key-dependent cones face the
// solver. The verdict is typed: Sat comes with a witness, Unsat proves
// the keys equivalent, and Unknown means the conflict budget (0 =
// unlimited) ran out first. A starved verdict is counted in
// engine_distinguish_unknown_total, published as a distinguish event
// and logged, so it never passes for a proof unseen.
func (a *attack) distinguish(keyA, keyB []bool, budget uint64) (sat.Status, []bool, error) {
	st, w, err := miter.DistinguishKeys(a.opts.Locked, keyA, keyB, budget)
	if err == nil && st == sat.Unknown {
		a.env.Tel.Counter("engine_distinguish_unknown_total").Inc()
		if bus := a.env.Bus; bus != nil {
			bus.Publish(events.Event{
				Type:  events.TypeDistinguish,
				Phase: a.env.Phase,
				Fields: map[string]string{
					"reason": "unknown_budget",
					"budget": strconv.FormatUint(budget, 10),
				},
			})
		}
		a.logf("distinguish verdict unknown_budget (budget %d)", budget)
	}
	return st, w, err
}

// errCalibrationBudget marks Algorithm-2 budget exhaustion, which the
// caller reports as a PartialError (the chain is already decoded; only
// the inter-block offset is missing).
var errCalibrationBudget = errors.New("core: calibration budget exhausted")

// maxCalibrations caps the Algorithm-2 brute-force loop over the
// calibration block's upper key bits.
const maxCalibrations = 1 << 20

// calibrate is the paper's Algorithm-2 loop: brute force the calibration
// block's key bits at positions OR_last .. n-2 (bit n-1 is redundant up
// to complement) until the DIP set shows suppression. span is the open
// algo2 phase span; re-extractions and re-decodes during the sweep trace
// as its children.
func (a *attack) calibrate(span *telemetry.Span, active int, st0 *structured) (uint64, *structured, error) {
	n := a.layout.N()
	orLast := st0.chainH.LastOR() + 1 // chain-input position of the last OR, 0 if none
	width := n - 1 - orLast
	if width < 0 {
		width = 0
	}
	limit := uint64(1) << uint(width)
	if limit > maxCalibrations {
		return 0, nil, fmt.Errorf("%w: calibration space 2^%d exceeds %d candidates", errCalibrationBudget, width, maxCalibrations)
	}
	bigN := float64(st0.nBig)
	for cand := uint64(1); cand < limit; cand++ {
		if err := a.ctxErr(); err != nil {
			return 0, nil, err
		}
		a.calibrations++
		a.cCalibrations.Inc()
		c := cand << uint(orLast)
		sizes, err := a.ext.Classes(a.assign(active, c))
		if err != nil {
			return 0, nil, err
		}
		shrunk := false
		if sizes.Exact {
			shrunk = sizes.Small < bigN && sizes.Big == bigN
		} else {
			shrunk = sizes.Small < 0.8*bigN && sizes.Big > 0.8*bigN && sizes.Big < 1.2*bigN
		}
		if !shrunk {
			continue
		}
		dips, err := a.extractDIPs(active, c)
		if err != nil {
			return 0, nil, err
		}
		st, err := a.decode(span, dips)
		if err != nil {
			continue // sampling false positive; keep sweeping
		}
		if len(st.deltas) == 0 {
			continue
		}
		return c, st, nil
	}
	return 0, nil, fmt.Errorf("core: calibration sweep found no suppressing assignment")
}

// buildKey maps block polarities to a canonical key vector for the locked
// circuit: under Case 1 (active = block 1) a1 = aActive, a2 = aCalib;
// under Case 2 the active block is ḡ and the reduction flips the
// calibration block's polarity.
func (a *attack) buildKey(active int, aActive, aCalib uint64) []bool {
	n := a.layout.N()
	mask := blockMask(n)
	var a1, a2 uint64
	if active == 1 {
		a1, a2 = aActive, aCalib
	} else {
		a2 = aActive
		a1 = ^aCalib & mask
	}
	key := make([]bool, a.opts.Locked.NumKeys())
	for i := 0; i < n; i++ {
		key[a.layout.Key1Pos[i]] = a1&(1<<uint(i)) != 0
		key[a.layout.Key2Pos[i]] = a2&(1<<uint(i)) != 0
	}
	return key
}

// probeSet is an oracle-answered packed batch: the probe shared by every
// candidate of one decoded structure (up to 64 block patterns, one
// Query64), or one distinguishing witness in lane 0.
type probeSet struct {
	in, want []uint64
	lanes    int
}

// newProbeSet draws the probe patterns and asks the oracle once.
func (a *attack) newProbeSet(st *structured) (*probeSet, error) {
	patterns := a.probePatterns(st)
	in := make([]uint64, a.opts.Locked.NumInputs())
	a.packBlocks(in, patterns)
	want, err := a.opts.Oracle.Query64(in)
	if err != nil {
		return nil, err
	}
	a.countQueries(64)
	return &probeSet{in: in, want: append([]uint64(nil), want...), lanes: len(patterns)}, nil
}

// passesProbes checks a candidate key against the probe set in one
// 64-lane simulation: it passes when no lane differs from the oracle's
// answer.
func (a *attack) passesProbes(p *probeSet, key []bool) (bool, error) {
	got, err := a.sim.Run64(p.in, keyWords(key))
	if err != nil {
		return false, err
	}
	return diffLanes(p.want, got, p.lanes) == 0, nil
}

// probeLanes is the size of the shared probe set: one packed batch.
const probeLanes = 64

// probePatterns samples probeLanes block patterns, leading with the two
// patterns every residual-misalignment candidate provably corrupts
// (DIP_nc and its complement: in the candidate's own coordinates they
// sit on w_nc, which any surviving δ-error maps outside the one-point
// set), followed by class samples and random patterns.
func (a *attack) probePatterns(st *structured) []uint64 {
	mask := blockMask(a.layout.N())
	// A candidate whose only error is a residual inter-block offset m
	// corrupts exactly the patterns X with X ∈ W, X⊕m ∉ W (its canonical
	// key cancels the key-gate masks), and w_nc is such a pattern for
	// every low-bit offset; a candidate's joint complement corrupts ¬w_nc
	// instead. The complemented anchors stay although only one candidate
	// per class is built: they fix the random fill, and with it the rng
	// stream every later batch draws from.
	wnc := NonControllingPattern(st.chainH)
	out := []uint64{wnc, ^wnc & mask, st.dipNC, ^st.dipNC & mask}
	take := func(walk func(func(uint64) bool), k int) {
		walk(func(p uint64) bool {
			if k == 0 {
				return false
			}
			out = append(out, p)
			k--
			return true
		})
	}
	samples := probeLanes - len(out)
	take(st.forEachBig, samples/2)
	take(st.forEachSmall, samples/4)
	for len(out) < probeLanes {
		out = append(out, a.rng.Uint64()&mask)
	}
	return out
}

// packBlocks fills a packed input batch: lane l carries block pattern
// blocks[l] on the chain inputs (lanes past len(blocks) carry 0), and
// every other primary input gets random bits. Chain input i's word is
// bit column i of the lane-by-bit matrix blocks, so one bit-matrix
// transpose builds them all.
func (a *attack) packBlocks(in []uint64, blocks []uint64) {
	for i := range in {
		in[i] = a.rng.Uint64()
	}
	var m [64]uint64
	copy(m[:], blocks)
	transpose64(&m)
	for i, p := range a.layout.InputPos {
		in[p] = m[i]
	}
}

// transpose64 transposes a 64×64 bit matrix in place: bit k of m[i]
// moves to bit i of m[k]. Each round swaps the off-diagonal blocks of
// every diagonal block of side 2j (32×32 blocks first, then 16×16, …,
// single bits), which transposes the whole matrix after six rounds.
func transpose64(m *[64]uint64) {
	mask := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (m[k]>>uint(j) ^ m[k+j]) & mask
			m[k] ^= t << uint(j)
			m[k+j] ^= t
		}
		mask ^= mask << uint(j/2)
	}
}

// keyWords broadcasts a key, or one input pattern, to every lane of a
// 64-lane batch.
func keyWords(key []bool) []uint64 {
	w := make([]uint64, len(key))
	for i, b := range key {
		if b {
			w[i] = ^uint64(0)
		}
	}
	return w
}

// diffLanes returns the lanes, among the first lanes, on which two
// packed output batches differ.
func diffLanes(want, got []uint64, lanes int) uint64 {
	var d uint64
	for i := range want {
		d |= want[i] ^ got[i]
	}
	if lanes < 64 {
		d &= (uint64(1) << uint(lanes)) - 1
	}
	return d
}

func (a *attack) report(active int, st *structured, c *candidate) *Result {
	n := a.layout.N()
	mask := blockMask(n)
	var a1, a2 uint64
	chain := st.chainH
	cas := 1
	if active == 1 {
		a1, a2 = c.aActive, c.aCalib
	} else {
		cas = 2
		chain = st.chainH.Dual()
		a2 = c.aActive
		a1 = ^c.aCalib & mask
	}
	return &Result{
		Key:             c.key,
		Chain:           chain,
		KeyGates1:       kgFromMask(a1, n),
		KeyGates2:       kgFromMask(a2, n),
		Case:            cas,
		AlignedDIPs:     st.nBig,
		TotalDIPs:       st.total,
		Calibrations:    a.calibrations,
		CandidatesTried: a.candidates,
		OracleQueries:   a.queries,
	}
}

func kgFromMask(m uint64, n int) []netlist.GateType {
	out := make([]netlist.GateType, n)
	for i := 0; i < n; i++ {
		if m&(1<<uint(i)) != 0 {
			out[i] = netlist.Xnor
		} else {
			out[i] = netlist.Xor
		}
	}
	return out
}
