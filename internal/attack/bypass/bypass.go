// Package bypass implements the bypass attack of Xu, Shakya, Tehranipoor
// and Forte (CHES 2017): instead of recovering the key, apply an
// arbitrary wrong key and attach corrective circuitry ("bypass") that
// flips the outputs back on exactly the input patterns the wrong key
// corrupts. Against one-point-function schemes (SARLock, Anti-SAT) a
// single comparator suffices; against CAS-Lock the number of corrupted
// patterns — the DIP count the paper's Lemma 2 quantifies — makes the
// bypass circuitry blow up, which is the paper's motivation for
// attacking CAS-Lock through DIP *learning* instead.
package bypass

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// Options configures both forms of the attack.
type Options struct {
	// MaxFixes aborts when the bypass would need more corrections than
	// this (0 = 1<<16 for Run, 1<<12 for RunGenericOpts), modeling the
	// practical area budget that makes the attack infeasible on
	// high-corruptibility schemes.
	MaxFixes int
	// Seed draws RunGenericOpts' two wrong keys.
	Seed int64
	// Context, when non-nil, bounds the run's enumeration.
	Context context.Context
	// Telemetry instruments the run's enumeration (and RunGenericOpts'
	// attack_bypass span).
	Telemetry *telemetry.Registry
}

// Result is the corrected circuit and its cost.
type Result struct {
	// Circuit behaves like the original design: the locked netlist under
	// the chosen wrong key plus the bypass network.
	Circuit *netlist.Circuit
	// AppliedKey is the (wrong) key the bypass corrects.
	AppliedKey []bool
	// Fixes is the number of corrected block patterns (the DIP count).
	Fixes int
	// OverheadGates is the gate count added by the bypass network.
	OverheadGates int
}

// Run mounts the bypass attack on a CAS-locked netlist. It uses the
// Lemma-1 key pair for DIP enumeration (so every corruption of the
// chosen key is caught), queries the oracle on each DIP to learn the
// correct outputs, and synthesizes a comparator-plus-XOR bypass.
func Run(locked *netlist.Circuit, orc oracle.Oracle, opts Options) (*Result, error) {
	layout, err := core.DiscoverLayout(locked)
	if err != nil {
		return nil, err
	}
	maxFixes := opts.MaxFixes
	if maxFixes == 0 {
		maxFixes = 1 << 16
	}
	nk := locked.NumKeys()

	// Lemma-1 pair: copy A (the key we will bypass) has the active block
	// all-1; copy B all-0. Every pattern copy A corrupts is a miter DIP.
	assign := core.PairAssign{A: make([]bool, nk), B: make([]bool, nk)}
	for _, pos := range layout.Key1Pos {
		assign.A[pos] = true
	}
	env := &engine.Env{Ctx: opts.Context, Tel: opts.Telemetry, Phase: "bypass"}
	sim, err := netlist.NewSimulator(locked)
	if err != nil {
		return nil, err
	}
	ext, err := core.SelectExtractor(locked, layout, 1, env, sim)
	if err != nil {
		return nil, err
	}
	dips, err := ext.DIPs(assign)
	if err != nil {
		return nil, err
	}
	if dips.Count() > uint64(maxFixes) {
		return nil, fmt.Errorf("bypass: %d DIPs exceed the fix budget %d — bypass impractical on this instance",
			dips.Count(), maxFixes)
	}

	// For each DIP (a block pattern), decide whether copy A is the wrong
	// one there and on which outputs, then wire a comparator.
	out := locked.Clone()
	out.Name = locked.Name + "_bypassed"
	// Bake the applied key in: replace key inputs by constants, keeping
	// the clone's gate IDs aligned with the original circuit's.
	applied, err := oracle.Activate(out, assign.A)
	if err != nil {
		return nil, err
	}
	baseGates := applied.NumGates()

	// flipAccum[o] accumulates the OR of all comparators that must flip
	// output o.
	flipAccum := make([]netlist.ID, applied.NumOutputs())
	for i := range flipAccum {
		flipAccum[i] = netlist.InvalidID
	}
	fixes := 0
	fullIn := make([]bool, locked.NumInputs())
	for _, pat := range dips.Elements() {
		// Learn the correct outputs: block inputs set to the DIP, other
		// inputs zero (the CAS flip depends only on block inputs, so the
		// correction condition is a block-pattern comparator; output
		// differences elsewhere would contradict the extractor's cone
		// self-check).
		for i := range fullIn {
			fullIn[i] = false
		}
		for i, pos := range layout.InputPos {
			fullIn[pos] = pat&(1<<uint(i)) != 0
		}
		want, err := orc.Query(fullIn)
		if err != nil {
			return nil, err
		}
		got, err := sim.Run(fullIn, assign.A)
		if err != nil {
			return nil, err
		}
		wrongOutputs := make([]int, 0, 1)
		for o := range want {
			if want[o] != got[o] {
				wrongOutputs = append(wrongOutputs, o)
			}
		}
		if len(wrongOutputs) == 0 {
			continue // this DIP corrupts copy B, not our key
		}
		fixes++
		cmp, err := blockComparator(applied, layout, pat, fixes)
		if err != nil {
			return nil, err
		}
		for _, o := range wrongOutputs {
			if flipAccum[o] == netlist.InvalidID {
				flipAccum[o] = cmp
				continue
			}
			acc, err := applied.AddGate(netlist.Or, fmt.Sprintf("byp_or_%d_%d", o, fixes), flipAccum[o], cmp)
			if err != nil {
				return nil, err
			}
			flipAccum[o] = acc
		}
	}
	for o, acc := range flipAccum {
		if acc == netlist.InvalidID {
			continue
		}
		orig := applied.Outputs()[o]
		g, err := applied.AddGate(netlist.Xor, fmt.Sprintf("byp_fix_%d", o), orig, acc)
		if err != nil {
			return nil, err
		}
		if err := applied.ReplaceOutput(o, g); err != nil {
			return nil, err
		}
	}
	if err := applied.Validate(); err != nil {
		return nil, err
	}
	return &Result{
		Circuit:       applied,
		AppliedKey:    assign.A,
		Fixes:         fixes,
		OverheadGates: applied.NumGates() - baseGates,
	}, nil
}

// RunGeneric mounts the scheme-agnostic form of the bypass attack with
// default options; see RunGenericOpts.
func RunGeneric(locked *netlist.Circuit, orc oracle.Oracle, maxFixes int, seed int64) (*Result, error) {
	return RunGenericOpts(locked, orc, Options{MaxFixes: maxFixes, Seed: seed})
}

// RunGenericOpts mounts the scheme-agnostic form of the bypass attack:
// pick two arbitrary wrong keys, enumerate the full-input DIPs of their
// miter by SAT (up to the fix budget), learn the correct outputs from
// the oracle, and attach full-width comparators correcting the applied
// key. This is the published attack's shape for one-point-function
// schemes (SARLock, Anti-SAT): the applied key's corruption set is
// inside the miter's DIP set, so correcting those patterns yields an
// exact circuit (verified by the caller). On high-corruptibility
// schemes the fix budget blows up, which is the point.
//
// Witnesses come from the persistent engine (Engine.EnumerateWitnesses).
// The witness *set* is determined by the circuit and the key pair, so the
// bypass network depends on the engine only through enumeration order.
func RunGenericOpts(locked *netlist.Circuit, orc oracle.Oracle, opts Options) (*Result, error) {
	maxFixes := opts.MaxFixes
	if maxFixes <= 0 {
		maxFixes = 1 << 12
	}
	nk := locked.NumKeys()
	if nk == 0 {
		return nil, fmt.Errorf("bypass: circuit has no key inputs")
	}
	sp := opts.Telemetry.StartSpan("attack_bypass")
	defer sp.End()
	rng := rand.New(rand.NewSource(opts.Seed))
	keyA := make([]bool, nk)
	keyB := make([]bool, nk)
	for i := range keyA {
		keyA[i] = rng.Intn(2) == 1
		keyB[i] = rng.Intn(2) == 1
	}

	b, err := newBuilder(locked, orc, keyA, maxFixes)
	if err != nil {
		return nil, err
	}
	be, err := engine.New(locked, nil, &engine.Env{Ctx: opts.Context, Tel: opts.Telemetry, Phase: "bypass"})
	if err != nil {
		return nil, err
	}
	var visitErr error
	err = be.EnumerateWitnesses(keyA, keyB, func(pat []bool) bool {
		visitErr = b.correct(pat)
		return visitErr == nil
	})
	if visitErr != nil {
		return nil, visitErr
	}
	if err != nil {
		return nil, err
	}
	return b.finish()
}

// builder accumulates the bypass network over a witness stream. The
// result depends only on the witness *set* (gate tags aside).
type builder struct {
	applied   *netlist.Circuit
	sim       *netlist.Simulator
	orc       oracle.Oracle
	keyA      []bool
	maxFixes  int
	baseGates int
	flipAccum []netlist.ID
	fixes     int
}

func newBuilder(locked *netlist.Circuit, orc oracle.Oracle, keyA []bool, maxFixes int) (*builder, error) {
	applied, err := oracle.Activate(locked, keyA)
	if err != nil {
		return nil, err
	}
	sim, err := netlist.NewSimulator(locked)
	if err != nil {
		return nil, err
	}
	flipAccum := make([]netlist.ID, applied.NumOutputs())
	for i := range flipAccum {
		flipAccum[i] = netlist.InvalidID
	}
	return &builder{
		applied:   applied,
		sim:       sim,
		orc:       orc,
		keyA:      keyA,
		maxFixes:  maxFixes,
		baseGates: applied.NumGates(),
		flipAccum: flipAccum,
	}, nil
}

// correct learns the oracle's outputs on one witness and, when the
// applied key is the corrupted one there, wires a comparator correction.
func (b *builder) correct(pat []bool) error {
	want, err := b.orc.Query(pat)
	if err != nil {
		return err
	}
	got, err := b.sim.Run(pat, b.keyA)
	if err != nil {
		return err
	}
	var wrong []int
	for o := range want {
		if want[o] != got[o] {
			wrong = append(wrong, o)
		}
	}
	if len(wrong) == 0 {
		return nil // this DIP corrupts key B only
	}
	b.fixes++
	if b.fixes > b.maxFixes {
		return fmt.Errorf("bypass: fix budget %d exceeded — bypass impractical on this instance", b.maxFixes)
	}
	cmp, err := inputComparator(b.applied, pat, b.fixes)
	if err != nil {
		return err
	}
	for _, o := range wrong {
		if b.flipAccum[o] == netlist.InvalidID {
			b.flipAccum[o] = cmp
			continue
		}
		acc, err := b.applied.AddGate(netlist.Or, fmt.Sprintf("bypg_or_%d_%d", o, b.fixes), b.flipAccum[o], cmp)
		if err != nil {
			return err
		}
		b.flipAccum[o] = acc
	}
	return nil
}

// finish XORs the accumulated flip conditions into the outputs.
func (b *builder) finish() (*Result, error) {
	for o, acc := range b.flipAccum {
		if acc == netlist.InvalidID {
			continue
		}
		orig := b.applied.Outputs()[o]
		g, err := b.applied.AddGate(netlist.Xor, fmt.Sprintf("bypg_fix_%d", o), orig, acc)
		if err != nil {
			return nil, err
		}
		if err := b.applied.ReplaceOutput(o, g); err != nil {
			return nil, err
		}
	}
	if err := b.applied.Validate(); err != nil {
		return nil, err
	}
	return &Result{
		Circuit:       b.applied,
		AppliedKey:    b.keyA,
		Fixes:         b.fixes,
		OverheadGates: b.applied.NumGates() - b.baseGates,
	}, nil
}

// inputComparator builds AND(all primary inputs == pat) inside c.
func inputComparator(c *netlist.Circuit, pat []bool, tag int) (netlist.ID, error) {
	bits := make([]netlist.ID, len(pat))
	for i, in := range c.Inputs() {
		if pat[i] {
			bits[i] = in
		} else {
			inv, err := c.AddGate(netlist.Not, fmt.Sprintf("bypg_n%d_%d", tag, i), in)
			if err != nil {
				return netlist.InvalidID, err
			}
			bits[i] = inv
		}
	}
	acc := bits[0]
	for i := 1; i < len(bits); i++ {
		var err error
		acc, err = c.AddGate(netlist.And, fmt.Sprintf("bypg_a%d_%d", tag, i), acc, bits[i])
		if err != nil {
			return netlist.InvalidID, err
		}
	}
	return acc, nil
}

// blockComparator builds AND(block inputs == pat) inside c.
func blockComparator(c *netlist.Circuit, layout *core.BlockLayout, pat uint64, tag int) (netlist.ID, error) {
	bits := make([]netlist.ID, layout.N())
	for i, pos := range layout.InputPos {
		in := c.Inputs()[pos]
		if pat&(1<<uint(i)) != 0 {
			bits[i] = in
		} else {
			inv, err := c.AddGate(netlist.Not, fmt.Sprintf("byp_n%d_%d", tag, i), in)
			if err != nil {
				return netlist.InvalidID, err
			}
			bits[i] = inv
		}
	}
	acc := bits[0]
	for i := 1; i < len(bits); i++ {
		var err error
		acc, err = c.AddGate(netlist.And, fmt.Sprintf("byp_a%d_%d", tag, i), acc, bits[i])
		if err != nil {
			return netlist.InvalidID, err
		}
	}
	return acc, nil
}
