// Package sps implements the signal-probability-skew (SPS) analysis and
// removal attack of Yasin et al. ("Removal attacks on logic locking and
// camouflaging techniques"). Anti-SAT-style flip signals are the output
// of an AND whose two complementary block inputs make it almost always 0
// — an extreme probability skew that static analysis spots immediately.
// The removal attack bypasses the XOR that injects such a signal into the
// output cone. On Mirrored CAS-Lock this strips the outer instance, which
// is the pathway the paper uses before mounting the DIP-learning attack
// on the inner instance.
package sps

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/netlist"
)

// Probabilities computes, for every gate, the probability that it
// evaluates to 1 under independent uniform inputs and keys (the standard
// independence approximation of the SPS literature).
func Probabilities(c *netlist.Circuit) ([]float64, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := make([]float64, c.NumGates())
	for _, id := range order {
		g := c.Gate(id)
		switch g.Type {
		case netlist.Input:
			p[id] = 0.5
		case netlist.Const0:
			p[id] = 0
		case netlist.Const1:
			p[id] = 1
		case netlist.Buf:
			p[id] = p[g.Fanin[0]]
		case netlist.Not:
			p[id] = 1 - p[g.Fanin[0]]
		case netlist.And, netlist.Nand:
			v := 1.0
			for _, f := range g.Fanin {
				v *= p[f]
			}
			if g.Type == netlist.Nand {
				v = 1 - v
			}
			p[id] = v
		case netlist.Or, netlist.Nor:
			v := 1.0
			for _, f := range g.Fanin {
				v *= 1 - p[f]
			}
			if g.Type == netlist.Nor {
				p[id] = v
			} else {
				p[id] = 1 - v
			}
		case netlist.Xor, netlist.Xnor:
			v := 0.0
			for _, f := range g.Fanin {
				v = v*(1-p[f]) + (1-v)*p[f]
			}
			if g.Type == netlist.Xnor {
				v = 1 - v
			}
			p[id] = v
		}
	}
	return p, nil
}

// Skew returns |p - 0.5|, the distance from an unbiased signal.
func Skew(p float64) float64 {
	if p < 0.5 {
		return 0.5 - p
	}
	return p - 0.5
}

// FlipCandidate is a suspected flip-injection point: an XOR gate on an
// output cone whose key-dependent fanin carries the Anti-SAT/CAS flip
// signature.
type FlipCandidate struct {
	// Xor is the injection gate; Flip is its suspect fanin (the flip
	// signal); Passthrough is the other fanin (the original signal).
	Xor, Flip, Passthrough netlist.ID
	// Prob is the flip signal's estimated probability of being 1.
	Prob float64
	// Level is the XOR gate's logic level (removal targets the highest,
	// i.e. outermost, candidate first).
	Level int
}

// FindFlipCandidates returns suspected flip-injection XORs sorted
// outermost (highest level) first. A fanin qualifies as a flip signal
// when it depends on key inputs and carries one of the two published
// SPS signatures:
//
//   - extreme skew: its 1-probability is below tol or above 1-tol
//     (Anti-SAT: p(Y) = p(g)·p(ḡ) ≈ 2^-n under the independence
//     approximation); or
//   - complementary comparator: it is a 2-input AND whose key-dependent
//     fanins have probabilities summing to ≈ 1 with non-trivial skew —
//     the g ∧ ḡ structure of CAS-Lock, whose blocks are complements
//     under the correct key so their probabilities mirror each other
//     for any chain configuration.
func FindFlipCandidates(locked *netlist.Circuit, tol float64) ([]FlipCandidate, error) {
	if locked.NumKeys() == 0 {
		return nil, fmt.Errorf("sps: circuit %q has no key inputs", locked.Name)
	}
	probs, err := Probabilities(locked)
	if err != nil {
		return nil, err
	}
	levels, err := locked.Levels()
	if err != nil {
		return nil, err
	}
	keyDep := locked.TransitiveFanout(locked.Keys()...)
	outCone := make([]bool, locked.NumGates())
	for _, o := range locked.Outputs() {
		for id, in := range locked.TransitiveFanin(o) {
			if in {
				outCone[id] = true
			}
		}
	}
	suspicious := func(f netlist.ID) bool {
		if !keyDep[f] {
			return false
		}
		if probs[f] <= tol || probs[f] >= 1-tol {
			return true
		}
		fg := locked.Gate(f)
		if fg.Type != netlist.And || len(fg.Fanin) != 2 {
			return false
		}
		a, b := fg.Fanin[0], fg.Fanin[1]
		if !keyDep[a] || !keyDep[b] {
			return false
		}
		complementary := probs[a]+probs[b] > 1-tol && probs[a]+probs[b] < 1+tol
		return complementary && Skew(probs[a]) > 0.05
	}
	var out []FlipCandidate
	for id := 0; id < locked.NumGates(); id++ {
		g := locked.Gate(netlist.ID(id))
		if g.Type != netlist.Xor && g.Type != netlist.Xnor {
			continue
		}
		if len(g.Fanin) != 2 || !outCone[id] {
			continue
		}
		for i, f := range g.Fanin {
			if suspicious(f) {
				out = append(out, FlipCandidate{
					Xor:         netlist.ID(id),
					Flip:        f,
					Passthrough: g.Fanin[1-i],
					Prob:        probs[f],
					Level:       levels[id],
				})
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level > out[j].Level })
	return out, nil
}

// RemovalResult is the outcome of a removal attack step.
type RemovalResult struct {
	// Circuit is the cleaned netlist with the bypassed flip logic and any
	// now-unused key inputs removed.
	Circuit *netlist.Circuit
	// RemovedCandidate is the bypassed injection point (IDs refer to the
	// input circuit).
	RemovedCandidate FlipCandidate
	// SurvivingKeys maps each key input of the cleaned circuit to its
	// index in the input circuit's key list.
	SurvivingKeys []int
}

// RemoveOuterFlip bypasses the outermost flip-injection XOR: the output
// it feeds is rewired to the XOR's passthrough fanin, the flip cone
// becomes dead logic, and the circuit is re-extracted from its outputs so
// unused keys disappear. This is one step of the removal attack; on
// M-CAS it strips the outer CAS-Lock instance.
func RemoveOuterFlip(locked *netlist.Circuit, maxProb float64) (*RemovalResult, error) {
	cands, err := FindFlipCandidates(locked, maxProb)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("sps: no flip candidate below skew threshold %g", maxProb)
	}
	best := cands[0]

	work := locked.Clone()
	// Bypass: everything that read the XOR now reads the passthrough.
	rewireFanoutsAndOutputs(work, best.Xor, best.Passthrough)
	clean, err := work.ExtractCone(locked.Name+"_spsremoved", work.Outputs()...)
	if err != nil {
		return nil, err
	}
	// Recover which original keys survive, by name.
	keyIdxByName := make(map[string]int, locked.NumKeys())
	for i, id := range locked.Keys() {
		keyIdxByName[locked.Gate(id).Name] = i
	}
	surviving := make([]int, clean.NumKeys())
	for i, id := range clean.Keys() {
		idx, ok := keyIdxByName[clean.Gate(id).Name]
		if !ok {
			return nil, fmt.Errorf("sps: internal: key %q not in original circuit", clean.Gate(id).Name)
		}
		surviving[i] = idx
	}
	return &RemovalResult{Circuit: clean, RemovedCandidate: best, SurvivingKeys: surviving}, nil
}

func rewireFanoutsAndOutputs(c *netlist.Circuit, old, repl netlist.ID) {
	for id := 0; id < c.NumGates(); id++ {
		if netlist.ID(id) == repl {
			continue
		}
		g := c.Gate(netlist.ID(id))
		for i, f := range g.Fanin {
			if f == old {
				g.Fanin[i] = repl
			}
		}
	}
	for i, o := range c.Outputs() {
		if o == old {
			_ = c.ReplaceOutput(i, repl)
		}
	}
}

// NullifyFlipSignal implements the effect of the IFS attack variant of
// Sengupta, Limaye and Sinanoglu ("Breaking CAS-Lock and its variants by
// exploiting structural traces"): identify the flip signal Y and pin it
// to constant 0, so no flip is ever introduced regardless of the key.
// Unlike the published IFS — which chases structural traces through
// re-synthesized netlists — the identification here reuses the SPS
// candidate search. Like IFS, the result is a functional circuit but NO
// key is extracted (the contrast the paper draws with its own attack).
// The returned circuit retains the (now inert) key inputs.
func NullifyFlipSignal(locked *netlist.Circuit, tol float64) (*netlist.Circuit, *FlipCandidate, error) {
	cands, err := FindFlipCandidates(locked, tol)
	if err != nil {
		return nil, nil, err
	}
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("sps: no flip candidate below skew threshold %g", tol)
	}
	out := locked.Clone()
	out.Name = locked.Name + "_ifs"
	// Fix every candidate's flip input to 0 (plain CAS has one; nested
	// variants may expose several).
	zero, err := out.AddGate(netlist.Const0, "ifs_zero")
	if err != nil {
		return nil, nil, err
	}
	for i := range cands {
		g := out.Gate(cands[i].Xor)
		for j, f := range g.Fanin {
			if f == cands[i].Flip {
				g.Fanin[j] = zero
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, nil, err
	}
	return out, &cands[0], nil
}

// EstimateProbabilitiesSim estimates signal probabilities by random
// simulation with uniform inputs and keys — the empirical cross-check for
// the analytic propagation above (which assumes independence).
func EstimateProbabilitiesSim(c *netlist.Circuit, rounds int, seed int64) ([]float64, error) {
	sim, err := netlist.NewSimulator(c)
	if err != nil {
		return nil, err
	}
	rng := newSplitMix(uint64(seed))
	counts := make([]uint64, c.NumGates())
	in := make([]uint64, c.NumInputs())
	key := make([]uint64, c.NumKeys())
	for r := 0; r < rounds; r++ {
		for i := range in {
			in[i] = rng.next()
		}
		for i := range key {
			key[i] = rng.next()
		}
		if _, err := sim.Run64(in, key); err != nil {
			return nil, err
		}
		for id := 0; id < c.NumGates(); id++ {
			counts[id] += uint64(bits.OnesCount64(sim.NodeValue64(netlist.ID(id))))
		}
	}
	total := float64(rounds) * 64
	out := make([]float64, c.NumGates())
	for id := range out {
		out[id] = float64(counts[id]) / total
	}
	return out, nil
}

// splitMix is a tiny deterministic PRNG (SplitMix64); used instead of
// math/rand to draw whole 64-bit words cheaply.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
