package lock

import (
	"fmt"
	"math/rand"

	"repro/internal/netlist"
)

// CASOptions configures ApplyCAS.
type CASOptions struct {
	// Chain is the cascade configuration shared by both blocks (length
	// n-1 for n block inputs). Required.
	Chain ChainConfig
	// InputSel selects which host primary inputs (by position) feed the
	// blocks, in chain order. nil selects inputs 0..n-1.
	InputSel []int
	// KeyGates1 and KeyGates2 fix the XOR/XNOR key-gate choice per input
	// for g_cas and ḡ_cas. nil draws them from Seed.
	KeyGates1, KeyGates2 []netlist.GateType
	// Seed drives all random choices.
	Seed int64
	// TargetOutput is the host output the flip signal corrupts.
	TargetOutput int
}

// CASInstance is ground-truth metadata about an applied CAS-Lock
// instance. It exists for verification harnesses; attacks must not read
// it.
type CASInstance struct {
	N                    int // block input width (= half the key length)
	Chain                ChainConfig
	InputSel             []int
	KeyGates1, KeyGates2 []netlist.GateType
	// CorrectKey is the canonical correct key (K1 || K2) that reduces
	// every key gate to a buffer. The scheme accepts 2^N correct keys:
	// any K with mask(K1)==mask(K2).
	CorrectKey []bool
	// GOut, GBarOut, FlipGate identify g_cas, ḡ_cas and Y in the locked
	// circuit.
	GOut, GBarOut, FlipGate netlist.ID
}

// EffectiveMask returns the XOR mask a block applies to its inputs under
// key bits k: mask_i = k_i for an XOR key gate, ¬k_i for XNOR.
func EffectiveMask(keyGates []netlist.GateType, k []bool) []bool {
	m := make([]bool, len(k))
	for i := range k {
		m[i] = k[i] != (keyGates[i] == netlist.Xnor)
	}
	return m
}

// IsCorrectCASKey reports whether key (K1||K2) is one of the 2^N correct
// keys of the instance: both blocks must apply the same effective mask.
func (inst *CASInstance) IsCorrectCASKey(key []bool) bool {
	if len(key) != 2*inst.N {
		return false
	}
	m1 := EffectiveMask(inst.KeyGates1, key[:inst.N])
	m2 := EffectiveMask(inst.KeyGates2, key[inst.N:])
	for i := range m1 {
		if m1[i] != m2[i] {
			return false
		}
	}
	return true
}

// buildCASBlock adds one CAS block (key-gate layer + cascade) to c and
// returns the block output. When complemented is true the terminating
// gate is complemented, yielding the ḡ block.
func buildCASBlock(c *netlist.Circuit, prefix string, inputs, keys []netlist.ID,
	keyGates []netlist.GateType, chain ChainConfig, complemented bool) (netlist.ID, error) {

	n := len(inputs)
	if len(chain) != n-1 {
		return netlist.InvalidID, fmt.Errorf("lock: chain has %d gates for %d inputs (want %d)", len(chain), n, n-1)
	}
	if len(keys) != n {
		return netlist.InvalidID, fmt.Errorf("lock: %d keys for %d inputs", len(keys), n)
	}
	// Key-gate layer.
	v := make([]netlist.ID, n)
	for i := 0; i < n; i++ {
		id, err := c.AddGate(keyGates[i], fmt.Sprintf("%skg%d", prefix, i), inputs[i], keys[i])
		if err != nil {
			return netlist.InvalidID, err
		}
		v[i] = id
	}
	// Cascade: gate j combines the running value with input j+1.
	acc := v[0]
	for j := 0; j < n-1; j++ {
		isTerm := j == n-2
		typ := chain[j].gateTypeFor(complemented && isTerm)
		id, err := c.AddGate(typ, fmt.Sprintf("%sch%d", prefix, j), acc, v[j+1])
		if err != nil {
			return netlist.InvalidID, err
		}
		acc = id
	}
	return acc, nil
}

// ApplyCAS locks a copy of the host circuit with CAS-Lock. The host must
// have at least chain.NumInputs() primary inputs and no key inputs.
func ApplyCAS(host *netlist.Circuit, opts CASOptions) (*Locked, *CASInstance, error) {
	if host.NumKeys() != 0 {
		return nil, nil, fmt.Errorf("lock: host %q already has key inputs", host.Name)
	}
	n := opts.Chain.NumInputs()
	if n < 2 {
		return nil, nil, fmt.Errorf("lock: CAS block needs at least 2 inputs, chain gives %d", n)
	}
	if host.NumInputs() < n {
		return nil, nil, fmt.Errorf("lock: host has %d inputs, CAS block needs %d", host.NumInputs(), n)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	sel := opts.InputSel
	if sel == nil {
		sel = make([]int, n)
		for i := range sel {
			sel[i] = i
		}
	}
	if len(sel) != n {
		return nil, nil, fmt.Errorf("lock: InputSel has %d entries, need %d", len(sel), n)
	}
	seen := make(map[int]bool, n)
	for _, s := range sel {
		if s < 0 || s >= host.NumInputs() {
			return nil, nil, fmt.Errorf("lock: InputSel entry %d out of range", s)
		}
		if seen[s] {
			return nil, nil, fmt.Errorf("lock: InputSel entry %d repeated", s)
		}
		seen[s] = true
	}

	kg1 := opts.KeyGates1
	if kg1 == nil {
		kg1 = randomKeyGateTypes(rng, n)
	}
	kg2 := opts.KeyGates2
	if kg2 == nil {
		kg2 = randomKeyGateTypes(rng, n)
	}
	if err := validateKeyGates(kg1, n, "KeyGates1"); err != nil {
		return nil, nil, err
	}
	if err := validateKeyGates(kg2, n, "KeyGates2"); err != nil {
		return nil, nil, err
	}

	c := host.Clone()
	c.Name = host.Name + "_cas"

	blockIn := make([]netlist.ID, n)
	for i, s := range sel {
		blockIn[i] = c.Inputs()[s]
	}
	keys1 := make([]netlist.ID, n)
	keys2 := make([]netlist.ID, n)
	for i := 0; i < n; i++ {
		k, err := c.AddKey(keyName(i))
		if err != nil {
			return nil, nil, err
		}
		keys1[i] = k
	}
	for i := 0; i < n; i++ {
		k, err := c.AddKey(keyName(n + i))
		if err != nil {
			return nil, nil, err
		}
		keys2[i] = k
	}

	gOut, err := buildCASBlock(c, "cas_g_", blockIn, keys1, kg1, opts.Chain, false)
	if err != nil {
		return nil, nil, err
	}
	gBarOut, err := buildCASBlock(c, "cas_gb_", blockIn, keys2, kg2, opts.Chain, true)
	if err != nil {
		return nil, nil, err
	}
	flip, err := c.AddGate(netlist.And, "cas_flip", gOut, gBarOut)
	if err != nil {
		return nil, nil, err
	}
	if err := integrateFlip(c, flip, opts.TargetOutput, "cas_out"); err != nil {
		return nil, nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}

	key := append(canonicalKeyFor(kg1), canonicalKeyFor(kg2)...)
	inst := &CASInstance{
		N:          n,
		Chain:      append(ChainConfig(nil), opts.Chain...),
		InputSel:   append([]int(nil), sel...),
		KeyGates1:  append([]netlist.GateType(nil), kg1...),
		KeyGates2:  append([]netlist.GateType(nil), kg2...),
		CorrectKey: key,
		GOut:       gOut,
		GBarOut:    gBarOut,
		FlipGate:   flip,
	}
	return &Locked{Circuit: c, Key: key}, inst, nil
}

// EvalCASPair evaluates the pure CAS block pair bit-parallel: given the
// chain, key-gate types and keys of both blocks, it computes (g, ḡ) for
// 64 packed block-input patterns. It is the independent functional
// reference that tests check the netlist construction and the DIP
// extractors against.
func EvalCASPair(chain ChainConfig, kg1, kg2 []netlist.GateType, k1, k2 []bool, x []uint64) (g, gbar uint64) {
	g = evalCASChain(chain, kg1, k1, x, false)
	gbar = evalCASChain(chain, kg2, k2, x, true)
	return g, gbar
}

func evalCASChain(chain ChainConfig, kg []netlist.GateType, k []bool, x []uint64, complemented bool) uint64 {
	n := len(chain) + 1
	v := func(i int) uint64 {
		w := x[i]
		// XOR key gate: x ⊕ k ; XNOR: ¬(x ⊕ k).
		if k[i] {
			w = ^w
		}
		if kg[i] == netlist.Xnor {
			w = ^w
		}
		return w
	}
	acc := v(0)
	for j := 0; j < n-1; j++ {
		in := v(j + 1)
		if chain[j] == ChainAnd {
			acc &= in
		} else {
			acc |= in
		}
		if complemented && j == n-2 {
			acc = ^acc
		}
	}
	return acc
}
