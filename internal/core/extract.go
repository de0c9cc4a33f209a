package core

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// PairAssign fixes the full key vectors of the two miter copies (indexed
// like the locked circuit's key list).
type PairAssign struct {
	A, B []bool
}

// ClassSizes reports the two bit-(n-1) classes of a DIP set: Big ≥ Small.
// Exact is false when the sizes were estimated by sampling (and then they
// are scaled to the full block space).
type ClassSizes struct {
	Big, Small float64
	Exact      bool
}

// Extractor enumerates the DIP set of a fixed-key two-copy miter of the
// locked circuit, reported as patterns over the n chain inputs (bit i of
// a pattern = chain input i). Implementations must return each block
// pattern at most once.
//
// Both implementations read their context, telemetry and event bus
// from the *engine.Env they were built with; when its context expires
// mid-enumeration DIPs returns the partially filled set alongside the
// context's error, so callers can report progress.
type Extractor interface {
	// BlockWidth returns n, the chain width.
	BlockWidth() int
	// DIPs exactly enumerates the block-input patterns on which the two
	// copies disagree, as a packed bitset over the 2^n pattern space.
	DIPs(assign PairAssign) (*DIPSet, error)
	// Classes returns the sizes of the DIP set's two bit-(n-1) classes,
	// possibly by sampling.
	Classes(assign PairAssign) (ClassSizes, error)
	// Extractions returns how many DIP-set extractions (DIPs or Classes
	// calls) have been performed, for cost accounting.
	Extractions() int
}

// ---------------------------------------------------------------------
// SAT-based extractor: the faithful implementation of the paper's DIP-set
// extraction (bypass-attack style: miter + blocking clauses), run on the
// full locked netlist.
// ---------------------------------------------------------------------

// simEventStride is how many 64-pattern batches a simulation shard
// walks between dip_progress events: rare enough that the shared
// atomic and the bus mutex stay off the kernel's critical path, fine
// enough that a multi-second walk reports progress many times a second.
const simEventStride = 1024

// SATExtractor enumerates DIPs with a SAT solver over the full locked
// netlist, exactly as the paper does (CryptoMiniSat in the original).
//
// The default path runs on the persistent incremental engine
// (internal/engine): the key-differential miter is Tseitin encoded once
// into one long-lived solver, key assignments become assumption
// literals, and every extraction across every attack phase reuses the
// same clause database, so learned clauses and variable activity carry
// over between hypotheses and calibration candidates.
type SATExtractor struct {
	locked *netlist.Circuit
	layout *BlockLayout
	count  int
	env    *engine.Env    // shared with the engine; never nil
	eng    *engine.Engine // lazily built persistent engine

	// progress is the attack's per-DIP hook: invoked on the enumerating
	// goroutine after every accepted DIP with the (still mutating)
	// output set and complete=false, and once more with complete=true
	// when an enumeration finishes. Nil costs one check per DIP.
	progress func(set *DIPSet, complete bool)
	// seed is a checkpoint's partial set, replayed into the next DIPs
	// call as scope-guarded blocking clauses so enumeration continues
	// where the snapshot stopped. Consumed by exactly one extraction.
	seed *DIPSet
}

// NewSATExtractor builds a SAT-based extractor whose engine runs in env
// (nil: never cancelled, uninstrumented, no events).
func NewSATExtractor(locked *netlist.Circuit, layout *BlockLayout, env *engine.Env) (*SATExtractor, error) {
	if err := layout.Validate(locked); err != nil {
		return nil, err
	}
	if layout.N() > 30 {
		return nil, fmt.Errorf("core: SAT extractor limited to 30 chain inputs (full enumeration); use the simulation extractor")
	}
	return &SATExtractor{locked: locked, layout: layout, env: orEmpty(env)}, nil
}

// orEmpty substitutes the empty environment for nil.
func orEmpty(env *engine.Env) *engine.Env {
	if env == nil {
		return &engine.Env{}
	}
	return env
}

// BlockWidth implements Extractor.
func (e *SATExtractor) BlockWidth() int { return e.layout.N() }

// Extractions implements Extractor.
func (e *SATExtractor) Extractions() int { return e.count }

// takeSeed consumes the pending resume seed if it matches the width.
func (e *SATExtractor) takeSeed() *DIPSet {
	s := e.seed
	e.seed = nil
	if s != nil && s.BlockWidth() != e.layout.N() {
		return nil
	}
	return s
}

// DIPs implements Extractor. It runs an assumption-driven enumeration
// session against the persistent engine: the key assignment becomes
// assumption literals, found patterns are excluded with scope-guarded
// blocking clauses that are retired when the session ends, and nothing
// is re-encoded. It honors a context: on expiry the partially enumerated
// set is returned with the context's error.
func (e *SATExtractor) DIPs(assign PairAssign) (*DIPSet, error) {
	if e.eng == nil {
		eng, err := engine.New(e.locked, e.layout.InputPos, e.env)
		if err != nil {
			return nil, err
		}
		e.eng = eng
	}
	e.count++
	tel := e.env.Tel
	tel.Counter("enum_extractions_total").Inc()
	out, err := NewDIPSet(e.layout.N())
	if err != nil {
		return nil, err
	}
	sp := tel.StartSpan("extract")
	sp.SetArg("engine", "sat-incremental")
	var seedFn func(yield func(pat uint64) bool)
	if s := e.takeSeed(); s != nil {
		s.ForEach(func(pat uint64) bool {
			out.Add(pat)
			return true
		})
		seedFn = s.ForEach
		sp.SetArg("seeded", strconv.FormatUint(s.Count(), 10))
	}
	var dup error
	enumErr := e.eng.EnumerateDIPsSeeded(assign.A, assign.B, seedFn, func(pat uint64) bool {
		if out.Contains(pat) {
			dup = fmt.Errorf("core: SAT enumeration returned duplicate pattern %b", pat)
			return false
		}
		out.Add(pat)
		if e.progress != nil {
			e.progress(out, false)
		}
		return true
	})
	if tel != nil {
		sp.SetArg("dips", strconv.FormatUint(out.Count(), 10))
	}
	sp.End()
	if dup != nil {
		return nil, dup
	}
	if enumErr != nil {
		if ctx := e.env.Ctx; ctx != nil && ctx.Err() != nil {
			return out, enumErr // partially enumerated: valid up to the cancel point
		}
		return nil, enumErr
	}
	if e.progress != nil {
		e.progress(out, true)
	}
	return out, nil
}

// Classes implements Extractor (exact, via DIPs).
func (e *SATExtractor) Classes(assign PairAssign) (ClassSizes, error) {
	dips, err := e.DIPs(assign)
	if err != nil {
		return ClassSizes{}, err
	}
	return classSizesOf(dips), nil
}

// classSizesOf splits a DIP set by its top bit — with the packed
// representation the two classes are the two halves of the bitset, so
// the split is two popcount scans.
func classSizesOf(dips *DIPSet) ClassSizes {
	half := dips.Universe() / 2
	c1 := dips.CountRange(half, dips.Universe())
	c0 := dips.Count() - c1
	big, small := float64(c0), float64(c1)
	if big < small {
		big, small = small, big
	}
	return ClassSizes{Big: big, Small: small, Exact: true}
}

// ---------------------------------------------------------------------
// Simulation-based extractor: sharded multi-core bit-parallel exhaustive
// enumeration over the key-dependent subcircuit. Functionally identical
// to the SAT path (verified by a construction-time self-check against
// full-netlist simulation and by cross-engine tests), but fast enough
// for the paper's 64-bit-key instances, whose DIP sets reach 8.5M
// patterns over a 2^32 block space.
// ---------------------------------------------------------------------

// simOp is one gate of the compiled key-cone program. Source operands
// are register indices; the first BlockWidth registers hold the chain
// inputs and the next NumKeys hold the key bits; negative operands are
// cone side inputs held at constant 0.
type simOp struct {
	typ  netlist.GateType
	args []int
	dst  int
}

// SimExtractor enumerates DIPs by exhaustive bit-parallel simulation of
// the key-dependent cone of the locked netlist, with all other cone side
// inputs held constant. Constructing one runs a randomized self-check
// that the cone's disagreement signal matches full-netlist disagreement.
//
// Enumeration is sharded across worker goroutines: the 2^n pattern space
// is partitioned into contiguous word-aligned shards, one worker per
// shard. Each worker evaluates a private clone of the compiled program
// (the register file is mutated per batch and is not concurrency-safe;
// clones are recycled through a sync.Pool) and deposits its 64-pattern
// disagreement masks into the word range of the result bitset it alone
// owns, so the merge is free and the result is bit-identical for every
// worker count.
type SimExtractor struct {
	layout  *BlockLayout
	n       int
	nKeys   int
	ops     []simOp
	outRegs []int
	regs    int // register count of the compiled cone (excluding copies)
	count   int
	workers int         // 0 = GOMAXPROCS
	env     *engine.Env // never nil

	// progress is the attack's progress hook. The sharded walk deposits
	// words concurrently, so it fires only at enumeration completion
	// (with complete=true): a complete exhaustive set is the only state
	// a snapshot can restore without racing the shard workers, and the
	// walk itself is pure recomputation.
	progress func(set *DIPSet, complete bool)
}

// NewSimExtractor compiles the key cone of the locked circuit and
// self-checks it against full-netlist simulation on random patterns.
// Enumerations run in env (nil: never cancelled, uninstrumented, no
// events): workers poll its context between batch blocks, each
// enumeration traces as an "extract" span with one child span per
// shard worker (on trace lanes 1..w) plus enum_shard_* metrics, and
// the walk publishes throttled dip_progress events carrying
// batches-walked / total-batches. None of it touches the 64-pattern
// batch hot loop: shard accounting happens once per shard, and event
// counting flushes into a shared atomic every simEventStride batches.
func NewSimExtractor(locked *netlist.Circuit, layout *BlockLayout, seed int64, env *engine.Env) (*SimExtractor, error) {
	return newSimExtractor(locked, layout, seed, env, nil)
}

// newSimExtractor is NewSimExtractor whose self-check runs on sim, a
// simulator of locked the caller already compiled; nil compiles one.
func newSimExtractor(locked *netlist.Circuit, layout *BlockLayout, seed int64, env *engine.Env, sim *netlist.Simulator) (*SimExtractor, error) {
	if err := layout.Validate(locked); err != nil {
		return nil, err
	}
	n := layout.N()
	if n > maxDenseBits {
		return nil, fmt.Errorf("%w: %d chain inputs beyond exhaustive enumeration", ErrBlockWidth, n)
	}
	mask := locked.TransitiveFanout(locked.Keys()...)
	order, err := locked.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &SimExtractor{layout: layout, n: n, nKeys: locked.NumKeys(), env: orEmpty(env)}
	reg := make([]int, locked.NumGates())
	for i := range reg {
		reg[i] = -1
	}
	// Registers 0..n-1: chain inputs; n..n+nKeys-1: keys; then temps.
	for i, pos := range layout.InputPos {
		reg[locked.Inputs()[pos]] = i
	}
	for i, id := range locked.Keys() {
		reg[id] = n + i
	}
	next := n + e.nKeys
	for _, id := range order {
		if !mask[id] {
			continue
		}
		g := locked.Gate(id)
		if g.Type == netlist.Input {
			continue // key inputs already assigned registers
		}
		args := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			if mask[f] {
				args[i] = reg[f]
			} else if r := reg[f]; r >= 0 {
				args[i] = r // a chain input feeding the cone directly
			} else {
				args[i] = -1 // side input held at 0
			}
		}
		reg[id] = next
		e.ops = append(e.ops, simOp{typ: g.Type, args: args, dst: next})
		next++
	}
	e.regs = next
	for _, o := range locked.Outputs() {
		if mask[o] {
			e.outRegs = append(e.outRegs, reg[o])
		}
	}
	if len(e.outRegs) == 0 {
		return nil, fmt.Errorf("core: no output depends on the key inputs")
	}
	if sim == nil {
		if sim, err = netlist.NewSimulator(locked); err != nil {
			return nil, err
		}
	}
	if err := e.selfCheck(locked, sim, seed); err != nil {
		return nil, err
	}
	return e, nil
}

// BlockWidth implements Extractor.
func (e *SimExtractor) BlockWidth() int { return e.n }

// Extractions implements Extractor.
func (e *SimExtractor) Extractions() int { return e.count }

// SetWorkers sets the number of shard workers used per enumeration.
// 0 (the default) resolves to GOMAXPROCS at enumeration time; 1 forces
// the single-goroutine path. The result is bit-identical regardless of
// the worker count.
func (e *SimExtractor) SetWorkers(k int) { e.workers = k }

// minBatchesPerWorker keeps tiny enumerations on one goroutine: below
// this many 64-pattern batches per shard the spawn overhead dominates.
const minBatchesPerWorker = 256

// shardPlan resolves the effective worker count for nBatches batches.
func (e *SimExtractor) shardPlan(nBatches uint64) int {
	w := e.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if max := nBatches / minBatchesPerWorker; uint64(w) > max {
		w = int(max)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// prepared is a per-assignment compiled program: registers carry the key
// constants of copy A (and, for keys whose two copies differ, a second
// register with copy B's value); gates untouched by differing keys are
// evaluated once and shared, the rest are duplicated. The instruction
// stream is a scheduled netlist.Program, so the same compiled assignment
// executes at 64 lanes (diff) or 512 lanes (see enumerateShard).
//
// prog and outs are immutable after prepare; regs (and the lazily built
// wide bank) are the mutable register files the hot loop writes, so a
// prepared program serves ONE goroutine — shard workers run on clones
// (see clone).
type prepared struct {
	n    int
	prog *netlist.Program
	regs []uint64   // width-1 template: key constants baked in, inputs written per batch
	outs [][2]int32 // (A,B) register pairs whose XOR is the disagreement
	wide []uint64   // stride-bankStride bank, materialized from regs on first wide use
}

// bankStride is the wide kernel's words per register: one Exec512 pass
// evaluates 8 consecutive 64-pattern batches.
const bankStride = 8

// clone returns a copy with a private register bank; the compiled
// program and output pairs are shared read-only.
func (p *prepared) clone() *prepared {
	q := *p
	q.regs = append([]uint64(nil), p.regs...)
	q.wide = nil
	return &q
}

// bank returns the stride-bankStride register bank, replicating the
// width-1 template (key constants, zero register) into every word slot
// on first use. Chain-input registers are overwritten per group by the
// enumeration loop.
func (p *prepared) bank() []uint64 {
	if p.wide == nil {
		p.wide = make([]uint64, len(p.regs)*bankStride)
		for r, v := range p.regs {
			if v == 0 {
				continue
			}
			for j := 0; j < bankStride; j++ {
				p.wide[r*bankStride+j] = v
			}
		}
	}
	return p.wide
}

// prepare compiles the cone for one key-pair assignment.
func (e *SimExtractor) prepare(assign PairAssign) (*prepared, error) {
	if err := e.checkAssign(assign); err != nil {
		return nil, err
	}
	zero := int32(e.regs) // dedicated always-0 register
	next := e.regs + 1
	bReg := make([]int32, e.regs)
	dyn := make([]bool, e.regs)
	for i := range bReg {
		bReg[i] = int32(i)
	}
	type kv struct {
		reg int32
		val bool
	}
	var keyVals []kv
	for i := 0; i < e.nKeys; i++ {
		r := e.n + i
		keyVals = append(keyVals, kv{int32(r), assign.A[i]})
		if assign.A[i] != assign.B[i] {
			dyn[r] = true
			bReg[r] = int32(next)
			next++
			keyVals = append(keyVals, kv{bReg[r], assign.B[i]})
		}
	}
	p := &prepared{n: e.n, prog: netlist.NewProgram(0)}
	for _, op := range e.ops {
		isDyn := false
		argsA := make([]int32, len(op.args))
		for i, a := range op.args {
			if a < 0 {
				argsA[i] = zero
				continue
			}
			argsA[i] = int32(a)
			if dyn[a] {
				isDyn = true
			}
		}
		if err := p.prog.Emit(op.typ, int32(op.dst), argsA); err != nil {
			return nil, err
		}
		if isDyn {
			dyn[op.dst] = true
			bReg[op.dst] = int32(next)
			next++
			argsB := make([]int32, len(op.args))
			for i, a := range op.args {
				if a < 0 {
					argsB[i] = zero
				} else {
					argsB[i] = bReg[a]
				}
			}
			if err := p.prog.Emit(op.typ, bReg[op.dst], argsB); err != nil {
				return nil, err
			}
		}
	}
	p.prog.Schedule()
	p.regs = make([]uint64, next)
	for _, k := range keyVals {
		if k.val {
			p.regs[k.reg] = ^uint64(0)
		}
	}
	for _, r := range e.outRegs {
		if dyn[r] {
			p.outs = append(p.outs, [2]int32{int32(r), bReg[r]})
		}
	}
	return p, nil
}

// diff evaluates 64 packed block patterns and returns the per-lane
// disagreement mask: the width-1 execution of the compiled program,
// used by the sampling/self-check paths and the wide loop's tail.
func (p *prepared) diff(block []uint64) uint64 {
	regs := p.regs
	copy(regs[:p.n], block)
	p.prog.Exec(regs)
	var d uint64
	for _, o := range p.outs {
		d |= regs[o[0]] ^ regs[o[1]]
	}
	return d
}

// laneMask returns the valid-lane mask of one 64-pattern batch: all-ones
// except for n < 6 blocks, whose single batch has only 2^n live lanes.
func (p *prepared) laneMask() uint64 {
	if p.n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (uint64(1) << uint(p.n))) - 1
}

// numBatches returns the number of 64-pattern batches covering the
// block space.
func (p *prepared) numBatches() uint64 {
	if p.n <= 6 {
		return 1
	}
	return uint64(1) << uint(p.n-6)
}

// ctxPollMask controls how often shard workers poll for cancellation:
// every (ctxPollMask+1) batches, i.e. every 16K patterns — frequent
// enough that a 1ms deadline lands in well under a millisecond of
// overshoot per worker, rare enough that the check is free.
const ctxPollMask = 255

// enumerateShard walks batches [startB, endB) of the block space,
// invoking visit with a starting batch index b and the (lane-masked)
// disagreement masks of the batches b, b+1, …, b+len(diffs)-1 — batch b
// covers patterns [b·64, b·64+64). For n > 6 the main loop executes the
// compiled program once per bankStride-batch group over a strided
// register bank, so visit receives word-aligned runs ready for direct
// bitset deposit; the remainder (and every n ≤ 6 walk) runs the scalar
// kernel one batch at a time. A non-nil ctx is polled every
// ctxPollMask+1 batches; on expiry the walk stops early and the
// context's error is returned. Callers running shards concurrently must
// give each shard its own prepared clone.
func (p *prepared) enumerateShard(ctx context.Context, startB, endB uint64, visit func(b uint64, diffs []uint64)) error {
	n := p.n
	b := startB
	const W = bankStride
	if n > 6 && b+W <= endB {
		bank := p.bank()
		for i := 0; i < 6; i++ {
			pat := lanePattern(i)
			for j := 0; j < W; j++ {
				bank[i*W+j] = pat
			}
		}
		diffs := make([]uint64, W)
		for ; b+W <= endB; b += W {
			if ctx != nil && b&ctxPollMask < W {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for i := 6; i < n; i++ {
				bit := uint64(1) << uint(i-6)
				row := bank[i*W : i*W+W]
				for j := range row {
					if (b+uint64(j))&bit != 0 {
						row[j] = ^uint64(0)
					} else {
						row[j] = 0
					}
				}
			}
			p.prog.Exec512(bank)
			for j := range diffs {
				diffs[j] = 0
			}
			for _, o := range p.outs {
				oa := bank[int(o[0])*W : int(o[0])*W+W]
				ob := bank[int(o[1])*W : int(o[1])*W+W]
				for j := 0; j < W; j++ {
					diffs[j] |= oa[j] ^ ob[j]
				}
			}
			visit(b, diffs)
		}
	}
	// Scalar kernel: n ≤ 6 single-batch spaces and the tail of a wide
	// walk.
	mask := p.laneMask()
	block := make([]uint64, n)
	for i := 0; i < n && i < 6; i++ {
		block[i] = lanePattern(i)
	}
	var one [1]uint64
	for ; b < endB; b++ {
		if ctx != nil && b&ctxPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		base := b << 6
		for i := 6; i < n; i++ {
			if base&(1<<uint(i)) != 0 {
				block[i] = ^uint64(0)
			} else {
				block[i] = 0
			}
		}
		one[0] = p.diff(block) & mask
		visit(b, one[:])
	}
	return nil
}

// shardBounds partitions [0, nBatches) into w contiguous ranges.
func shardBounds(nBatches uint64, w int) []uint64 {
	bounds := make([]uint64, w+1)
	for i := 0; i <= w; i++ {
		bounds[i] = nBatches * uint64(i) / uint64(w)
	}
	return bounds
}

// runSharded executes fn(worker, startB, endB, clone) for every shard on
// its own goroutine, each with a private prepared clone drawn from a
// sync.Pool. The template is only ever a clone source here — handing it
// to a worker too would let one goroutine mutate its register bank while
// another clones it. The single-shard case runs inline on the template.
func runSharded(tpl *prepared, nBatches uint64, w int, fn func(shard int, startB, endB uint64, pr *prepared)) {
	if w <= 1 {
		fn(0, 0, nBatches, tpl)
		return
	}
	pool := sync.Pool{New: func() any { return tpl.clone() }}
	bounds := shardBounds(nBatches, w)
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		if bounds[s] == bounds[s+1] {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pr := pool.Get().(*prepared)
			fn(s, bounds[s], bounds[s+1], pr)
			pool.Put(pr)
		}(s)
	}
	wg.Wait()
}

// lanePattern gives input i (i < 6) its within-word enumeration pattern:
// lane l carries pattern base+l, so bit i of (base+l) is bit i of l.
func lanePattern(i int) uint64 {
	switch i {
	case 0:
		return 0xAAAAAAAAAAAAAAAA
	case 1:
		return 0xCCCCCCCCCCCCCCCC
	case 2:
		return 0xF0F0F0F0F0F0F0F0
	case 3:
		return 0xFF00FF00FF00FF00
	case 4:
		return 0xFFFF0000FFFF0000
	case 5:
		return 0xFFFFFFFF00000000
	}
	panic("lanePattern: index out of range")
}

// DIPs implements Extractor: the sharded exhaustive walk. Every shard
// deposits its disagreement masks directly into the word range of the
// result bitset it owns — per-batch word indices are disjoint across
// shards, so the workers are lock-free and the "merge" is the identity.
func (e *SimExtractor) DIPs(assign PairAssign) (*DIPSet, error) {
	p, err := e.prepare(assign)
	if err != nil {
		return nil, err
	}
	e.count++
	out, err := NewDIPSet(e.n)
	if err != nil {
		return nil, err
	}
	nBatches := p.numBatches()
	w := e.shardPlan(nBatches)
	// The shard workers read the environment through these locals only.
	ctx, tel, bus, phase := e.env.Ctx, e.env.Tel, e.env.Bus, e.env.Phase
	var sp *telemetry.Span
	if tel != nil {
		tel.Counter("enum_extractions_total").Inc()
		tel.Gauge("enum_workers").Set(int64(w))
		sp = tel.StartSpan("extract")
		sp.SetArg("engine", "sim")
		sp.SetArg("workers", strconv.Itoa(w))
	}
	var batchesDone atomic.Uint64
	runSharded(p, nBatches, w, func(shard int, startB, endB uint64, pr *prepared) {
		ssp := sp.ChildLane("shard", shard+1)
		var local uint64
		pr.enumerateShard(ctx, startB, endB, func(b uint64, diffs []uint64) {
			out.setWords(b, diffs)
			if bus != nil {
				if local++; local >= simEventStride {
					done := batchesDone.Add(local)
					local = 0
					bus.Publish(events.Event{Type: events.TypeDIPProgress,
						Phase: phase, Done: done, Total: nBatches})
				}
			}
		})
		if tel != nil {
			ssp.SetArg("shard", strconv.Itoa(shard))
			ssp.SetArg("batches", strconv.FormatUint(endB-startB, 10))
			tel.Counter(telemetry.Label("enum_shard_batches_total",
				"shard", strconv.Itoa(shard))).Add(endB - startB)
			tel.Histogram("enum_shard_seconds", telemetry.DurationBuckets).
				ObserveDuration(ssp.End())
		}
	})
	if sp != nil {
		sp.SetArg("dips", strconv.FormatUint(out.Count(), 10))
		sp.End()
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return out, err // partially enumerated: words up to the cancel point
		}
	}
	if e.progress != nil {
		e.progress(out, true)
	}
	return out, nil
}

// exactClassBits is the largest block width for which Classes is exact;
// wider blocks are sampled.
const exactClassBits = 26

// sampleBatches is the number of random 64-pattern batches used when
// sampling class sizes.
const sampleBatches = 1 << 14

// Classes implements Extractor: exact for small blocks, sampled above
// exactClassBits. Both paths are sharded across workers, and both
// accumulate integer counts per shard before converting, so the result
// is bit-identical for every worker count.
func (e *SimExtractor) Classes(assign PairAssign) (ClassSizes, error) {
	p, err := e.prepare(assign)
	if err != nil {
		return ClassSizes{}, err
	}
	e.count++
	e.env.Tel.Counter("enum_extractions_total").Inc()
	if e.n <= exactClassBits {
		return e.classesExact(p)
	}
	return e.classesSampled(p)
}

// classesExact walks the whole block space, counting the two top-bit
// classes per shard.
func (e *SimExtractor) classesExact(p *prepared) (ClassSizes, error) {
	top := uint64(1) << uint(e.n-1)
	var topMaskInWord uint64 // for n ≤ 6 the top bit varies within a word
	if e.n <= 6 {
		topMaskInWord = lanePattern(e.n - 1)
	}
	nBatches := p.numBatches()
	w := e.shardPlan(nBatches)
	counts := make([][2]uint64, w) // per-shard accumulators: no sharing, no locks
	topB := top >> 6               // batch-index form of the top bit for n > 6
	ctx := e.env.Ctx
	runSharded(p, nBatches, w, func(shard int, startB, endB uint64, pr *prepared) {
		var c0, c1 uint64
		pr.enumerateShard(ctx, startB, endB, func(b uint64, diffs []uint64) {
			if e.n <= 6 {
				c1 += uint64(bits.OnesCount64(diffs[0] & topMaskInWord))
				c0 += uint64(bits.OnesCount64(diffs[0] &^ topMaskInWord))
				return
			}
			for j, d := range diffs {
				if (b+uint64(j))&topB != 0 {
					c1 += uint64(bits.OnesCount64(d))
				} else {
					c0 += uint64(bits.OnesCount64(d))
				}
			}
		})
		counts[shard] = [2]uint64{c0, c1}
	})
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return ClassSizes{}, err
		}
	}
	var c0, c1 uint64
	for _, c := range counts {
		c0 += c[0]
		c1 += c[1]
	}
	if c0 < c1 {
		c0, c1 = c1, c0
	}
	return ClassSizes{Big: float64(c0), Small: float64(c1), Exact: true}, nil
}

// classesSampled estimates the class sizes from random batches, scaled
// to the full space. Each batch's patterns derive from a splitmix64
// stream seeded by (extraction count, batch index), so the estimate does
// not depend on how batches are distributed over workers.
func (e *SimExtractor) classesSampled(p *prepared) (ClassSizes, error) {
	seedBase := uint64(e.count) * 0x9e3779b97f4a7c15
	w := e.shardPlan(sampleBatches)
	counts := make([][2]uint64, w)
	ctx := e.env.Ctx
	runSharded(p, sampleBatches, w, func(shard int, startB, endB uint64, pr *prepared) {
		var c0, c1 uint64
		block := make([]uint64, e.n)
		for b := startB; b < endB; b++ {
			if ctx != nil && b&ctxPollMask == 0 && ctx.Err() != nil {
				break
			}
			state := seedBase ^ (b+1)*0xbf58476d1ce4e5b9
			for i := range block {
				block[i] = splitmix64(&state)
			}
			diff := pr.diff(block)
			topMask := block[e.n-1]
			c1 += uint64(bits.OnesCount64(diff & topMask))
			c0 += uint64(bits.OnesCount64(diff &^ topMask))
		}
		counts[shard] = [2]uint64{c0, c1}
	})
	var c0, c1 uint64
	for _, c := range counts {
		c0 += c[0]
		c1 += c[1]
	}
	scale := float64(uint64(1)<<uint(e.n)) / float64(sampleBatches*64)
	b, s := float64(c0)*scale, float64(c1)*scale
	if b < s {
		b, s = s, b
	}
	return ClassSizes{Big: b, Small: s, Exact: false}, nil
}

// splitmix64 advances the state and returns the next output of the
// SplitMix64 stream — a tiny, seedable, allocation-free generator for
// the sampling path.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (e *SimExtractor) checkAssign(assign PairAssign) error {
	if len(assign.A) != e.nKeys || len(assign.B) != e.nKeys {
		return fmt.Errorf("core: key assignment lengths %d/%d, circuit has %d keys",
			len(assign.A), len(assign.B), e.nKeys)
	}
	return nil
}

// selfCheck verifies cone disagreement equals full-netlist disagreement
// on random patterns under a few representative key assignments, which
// certifies that holding cone side inputs at 0 is sound for this netlist
// (true whenever the flip is injected through XORs). sim simulates the
// full locked netlist.
func (e *SimExtractor) selfCheck(locked *netlist.Circuit, sim *netlist.Simulator, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	nk := e.nKeys
	assigns := make([]PairAssign, 0, 3)
	mk := func(f func(i int) (bool, bool)) PairAssign {
		a := PairAssign{A: make([]bool, nk), B: make([]bool, nk)}
		for i := 0; i < nk; i++ {
			a.A[i], a.B[i] = f(i)
		}
		return a
	}
	assigns = append(assigns,
		mk(func(i int) (bool, bool) { return i%2 == 0, false }),
		mk(func(i int) (bool, bool) { return rng.Intn(2) == 1, rng.Intn(2) == 1 }),
		mk(func(i int) (bool, bool) { return true, i%3 == 0 }),
	)
	in := make([]uint64, locked.NumInputs())
	block := make([]uint64, e.n)
	keyA := make([]uint64, nk)
	keyB := make([]uint64, nk)
	for _, assign := range assigns {
		p, err := e.prepare(assign)
		if err != nil {
			return err
		}
		for i := 0; i < nk; i++ {
			keyA[i], keyB[i] = 0, 0
			if assign.A[i] {
				keyA[i] = ^uint64(0)
			}
			if assign.B[i] {
				keyB[i] = ^uint64(0)
			}
		}
		for round := 0; round < 4; round++ {
			for i := range in {
				in[i] = rng.Uint64()
			}
			for i, pos := range e.layout.InputPos {
				block[i] = in[pos]
			}
			outA, err := sim.Run64(in, keyA)
			if err != nil {
				return err
			}
			outACopy := append([]uint64(nil), outA...)
			outB, err := sim.Run64(in, keyB)
			if err != nil {
				return err
			}
			var fullDiff uint64
			for i := range outB {
				fullDiff |= outACopy[i] ^ outB[i]
			}
			if p.diff(block) != fullDiff {
				return fmt.Errorf("core: key-cone extraction unsound for this netlist (side inputs are not transparent)")
			}
		}
	}
	return nil
}
