// Package core implements the paper's contribution: the DIP-learning
// attack on CAS-Lock (Saha, Chatterjee, Mukhopadhyay, Chakraborty,
// "DIP Learning on CAS-Lock", DATE 2022).
//
// The attack recovers the full CAS-Lock key, the AND/OR chain
// configuration and every XOR/XNOR key gate of both blocks purely from
// externally observable distinguishing input patterns (DIPs) of a
// two-copy miter with the Lemma-1 key assignment, plus oracle queries
// for final candidate verification. It performs no structural analysis
// of the locked logic: the netlist is only simulated/SAT-queried as a
// black box, and the only side information is the I/O layout of the key
// port (which primary input each key bit is paired with, in chain
// order) — information any reverse-engineered netlist exposes.
package core

import (
	"fmt"

	"repro/internal/netlist"
)

// BlockLayout describes the CAS-Lock key port of a locked netlist: for
// each of the two blocks, the primary inputs they read (in chain order)
// and the key inputs paired with them (same order). Both blocks read the
// same primary inputs. The layout deliberately carries no gate-type
// information: the attack must learn the chain configuration and key
// gate polarities from DIPs alone.
type BlockLayout struct {
	// InputPos[i] is the position (in the locked circuit's primary-input
	// list) of the i-th chain input.
	InputPos []int
	// Key1Pos[i] / Key2Pos[i] are the positions (in the locked circuit's
	// key list) of block 1's / block 2's key bit paired with chain
	// input i.
	Key1Pos, Key2Pos []int
}

// N returns the block width.
func (l *BlockLayout) N() int { return len(l.InputPos) }

// Validate checks internal consistency against a circuit.
func (l *BlockLayout) Validate(c *netlist.Circuit) error {
	n := l.N()
	if n < 2 {
		return fmt.Errorf("core: layout has %d chain inputs, need at least 2", n)
	}
	if len(l.Key1Pos) != n || len(l.Key2Pos) != n {
		return fmt.Errorf("core: layout key lists (%d/%d) do not match %d inputs",
			len(l.Key1Pos), len(l.Key2Pos), n)
	}
	seenIn := map[int]bool{}
	for _, p := range l.InputPos {
		if p < 0 || p >= c.NumInputs() {
			return fmt.Errorf("core: layout input position %d out of range", p)
		}
		if seenIn[p] {
			return fmt.Errorf("core: layout input position %d repeated", p)
		}
		seenIn[p] = true
	}
	seenKey := map[int]bool{}
	for _, lst := range [][]int{l.Key1Pos, l.Key2Pos} {
		for _, p := range lst {
			if p < 0 || p >= c.NumKeys() {
				return fmt.Errorf("core: layout key position %d out of range", p)
			}
			if seenKey[p] {
				return fmt.Errorf("core: layout key position %d repeated", p)
			}
			seenKey[p] = true
		}
	}
	return nil
}

// DiscoverLayout recovers the BlockLayout of a CAS-locked netlist by
// tracing the key port: each key input feeds exactly one gate, an
// XOR/XNOR key gate whose other fanin is a primary input, and nothing
// else (a key with any other fanout is refused); the key gates of a block
// feed a cascade of 2-input gates whose order gives the chain positions.
// Gate types observed during the walk are used solely to follow the
// wiring — they are not reported, and the attack never reads them.
//
// This models the trivial reverse-engineering step every published
// oracle-guided attack assumes (knowing where the key port is); it is
// not the "structural analysis" of re-synthesized logic that the paper's
// attack explicitly avoids.
func DiscoverLayout(locked *netlist.Circuit) (*BlockLayout, error) {
	nk := locked.NumKeys()
	if nk == 0 || nk%2 != 0 {
		return nil, fmt.Errorf("core: circuit has %d key inputs; CAS-Lock needs an even, positive count", nk)
	}
	inputIndex := make(map[netlist.ID]int, locked.NumInputs())
	for i, id := range locked.Inputs() {
		inputIndex[id] = i
	}
	keyIndex := make(map[netlist.ID]int, nk)
	for i, id := range locked.Keys() {
		keyIndex[id] = i
	}

	// fanouts of every gate.
	fanouts := make([][]netlist.ID, locked.NumGates())
	for id := 0; id < locked.NumGates(); id++ {
		for _, f := range locked.Gate(netlist.ID(id)).Fanin {
			fanouts[f] = append(fanouts[f], netlist.ID(id))
		}
	}

	isOutput := make(map[netlist.ID]bool, locked.NumOutputs())
	for _, id := range locked.Outputs() {
		isOutput[id] = true
	}

	// Key gate per key input: its one XOR/XNOR fanout, pairing the key
	// with a primary input. The key must drive nothing else — no other
	// gate and no primary output — because the attack's
	// one-candidate-per-class rule rests on it: when every key bit
	// reaches the circuit only through x⊕k, complementing all key bits
	// of both blocks turns each block's function Y(x) into Y(¬x), so both
	// keys unlock the circuit or neither does (DESIGN §9).
	type keyGate struct {
		gate   netlist.ID
		input  int // primary-input position
		keyPos int
	}
	keyGateOf := make(map[netlist.ID]keyGate) // key gate ID → info
	for _, kid := range locked.Keys() {
		name := locked.Gate(kid).Name
		if len(fanouts[kid]) != 1 || isOutput[kid] {
			return nil, fmt.Errorf("core: key %q drives logic besides its one XOR/XNOR key gate", name)
		}
		out := fanouts[kid][0]
		g := locked.Gate(out)
		pos, ok := -1, false
		if (g.Type == netlist.Xor || g.Type == netlist.Xnor) && len(g.Fanin) == 2 {
			other := g.Fanin[0]
			if other == kid {
				other = g.Fanin[1]
			}
			pos, ok = inputIndex[other]
		}
		if !ok {
			return nil, fmt.Errorf("core: key %q has no XOR/XNOR key gate pairing it with a primary input", name)
		}
		keyGateOf[out] = keyGate{gate: out, input: pos, keyPos: keyIndex[kid]}
	}

	isChainGate := func(id netlist.ID) bool {
		switch locked.Gate(id).Type {
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			return len(locked.Gate(id).Fanin) == 2
		}
		return false
	}

	// A chain head is a chain gate whose both fanins are key gates.
	var heads []netlist.ID
	for id := 0; id < locked.NumGates(); id++ {
		if !isChainGate(netlist.ID(id)) {
			continue
		}
		f := locked.Gate(netlist.ID(id)).Fanin
		if _, ok0 := keyGateOf[f[0]]; ok0 {
			if _, ok1 := keyGateOf[f[1]]; ok1 {
				heads = append(heads, netlist.ID(id))
			}
		}
	}
	if len(heads) != 2 {
		return nil, fmt.Errorf("core: found %d cascade heads, want 2 (one per block)", len(heads))
	}

	// Walk each cascade from its head: at every step the current gate
	// feeds exactly one further chain gate whose other fanin is a key
	// gate.
	type block struct {
		inputs []int
		keys   []int
	}
	walk := func(head netlist.ID) (*block, error) {
		b := &block{}
		f := locked.Gate(head).Fanin
		kg0 := keyGateOf[f[0]]
		kg1 := keyGateOf[f[1]]
		// Chain position 0 and 1: order within the head gate follows the
		// locker's fanin convention (accumulator first); for a head both
		// fanins are key gates and position is given by fanin order.
		b.inputs = append(b.inputs, kg0.input, kg1.input)
		b.keys = append(b.keys, kg0.keyPos, kg1.keyPos)
		cur := head
		for {
			var next netlist.ID = netlist.InvalidID
			for _, out := range fanouts[cur] {
				if !isChainGate(out) {
					continue
				}
				fo := locked.Gate(out).Fanin
				other := fo[0]
				if other == cur {
					other = fo[1]
				}
				if kg, ok := keyGateOf[other]; ok {
					if next != netlist.InvalidID {
						return nil, fmt.Errorf("core: cascade gate %q continues into multiple chain gates",
							locked.Gate(cur).Name)
					}
					next = out
					b.inputs = append(b.inputs, kg.input)
					b.keys = append(b.keys, kg.keyPos)
				}
			}
			if next == netlist.InvalidID {
				return b, nil
			}
			cur = next
		}
	}
	b0, err := walk(heads[0])
	if err != nil {
		return nil, err
	}
	b1, err := walk(heads[1])
	if err != nil {
		return nil, err
	}
	if len(b0.inputs) != len(b1.inputs) {
		return nil, fmt.Errorf("core: blocks have different widths (%d vs %d)", len(b0.inputs), len(b1.inputs))
	}
	if len(b0.inputs)*2 != nk {
		return nil, fmt.Errorf("core: cascade width %d inconsistent with %d key inputs", len(b0.inputs), nk)
	}
	// The two blocks must read the same primary inputs in the same chain
	// order; align block 1's order to block 0's.
	if !sameIntSlice(b0.inputs, b1.inputs) {
		return nil, fmt.Errorf("core: blocks read different primary inputs or orders")
	}
	// Canonical block numbering: block 1 = the one whose first key comes
	// first in the key list (our locker declares g_cas keys first, but
	// the attack does not rely on which block is which — it tries both
	// role assignments).
	if b0.keys[0] > b1.keys[0] {
		b0, b1 = b1, b0
	}
	return &BlockLayout{
		InputPos: append([]int(nil), b0.inputs...),
		Key1Pos:  append([]int(nil), b0.keys...),
		Key2Pos:  append([]int(nil), b1.keys...),
	}, nil
}

func sameIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
