package netlist

import (
	"fmt"
	"sort"
)

// Circuit is a combinational gate-level netlist. Gates form a DAG; primary
// inputs and key inputs are both Input-type gates tracked in separate
// ordered lists so that locked circuits can distinguish the functional
// inputs from the key port. Outputs name the observable signals.
//
// The zero Circuit is empty and ready to use.
type Circuit struct {
	Name string

	gates   []Gate
	names   map[string]ID
	inputs  []ID // primary inputs, in declaration order
	keys    []ID // key inputs, in declaration order
	outputs []ID // primary outputs, in declaration order

	topo      []ID // cached topological order; nil when stale
	topoValid bool

	// slab holds the gates' fanin lists back to back; each gate's Fanin
	// is a full slice expression over its own stretch, so an append to
	// one gate's fanin reallocates instead of overwriting a neighbour.
	slab []ID
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, names: make(map[string]ID)}
}

// NewSized returns an empty circuit with room for n gates (and about two
// fanins each) before any table grows. n is only a capacity hint.
func NewSized(name string, n int) *Circuit {
	return &Circuit{
		Name:  name,
		gates: make([]Gate, 0, n),
		names: make(map[string]ID, n),
		slab:  make([]ID, 0, 2*n),
	}
}

// NumGates returns the total number of gates (including inputs and keys).
func (c *Circuit) NumGates() int { return len(c.gates) }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// NumKeys returns the number of key inputs.
func (c *Circuit) NumKeys() int { return len(c.keys) }

// NumOutputs returns the number of primary outputs.
func (c *Circuit) NumOutputs() int { return len(c.outputs) }

// Inputs returns the primary-input gate IDs in declaration order. The
// returned slice is owned by the circuit and must not be modified.
func (c *Circuit) Inputs() []ID { return c.inputs }

// Keys returns the key-input gate IDs in declaration order. The returned
// slice is owned by the circuit and must not be modified.
func (c *Circuit) Keys() []ID { return c.keys }

// Outputs returns the primary-output gate IDs in declaration order. The
// returned slice is owned by the circuit and must not be modified.
func (c *Circuit) Outputs() []ID { return c.outputs }

// Gate returns the gate with the given ID. The returned pointer stays
// valid until the next AddGate call.
func (c *Circuit) Gate(id ID) *Gate {
	return &c.gates[id]
}

// Lookup returns the ID of the gate with the given name, or InvalidID.
func (c *Circuit) Lookup(name string) ID {
	if id, ok := c.names[name]; ok {
		return id
	}
	return InvalidID
}

// HasName reports whether a gate with the given name exists.
func (c *Circuit) HasName(name string) bool {
	_, ok := c.names[name]
	return ok
}

// AddGate appends a gate and returns its ID. The name must be unique and
// non-empty, all fanin IDs must already exist, and the fanin count must be
// legal for the type.
func (c *Circuit) AddGate(t GateType, name string, fanin ...ID) (ID, error) {
	if !t.Valid() {
		return InvalidID, fmt.Errorf("netlist: invalid gate type %d", uint8(t))
	}
	if name == "" {
		return InvalidID, fmt.Errorf("netlist: empty gate name")
	}
	if _, dup := c.names[name]; dup {
		return InvalidID, fmt.Errorf("netlist: duplicate gate name %q", name)
	}
	if n := len(fanin); n < t.MinFanin() || (t.MaxFanin() >= 0 && n > t.MaxFanin()) {
		return InvalidID, fmt.Errorf("netlist: gate %q: %s cannot take %d fanins", name, t, n)
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(c.gates) {
			return InvalidID, fmt.Errorf("netlist: gate %q: fanin %d does not exist", name, f)
		}
	}
	id := ID(len(c.gates))
	c.gates = append(c.gates, Gate{Type: t, Name: name, Fanin: c.ownFanin(fanin)})
	if c.names == nil {
		c.names = make(map[string]ID)
	}
	c.names[name] = id
	c.topoValid = false
	return id, nil
}

// ownFanin copies a fanin list into the circuit's slab. When the slab is
// full a fresh stretch is started (the old one stays referenced by the
// gates already in it), sized to grow with the circuit.
func (c *Circuit) ownFanin(fanin []ID) []ID {
	if len(fanin) == 0 {
		return nil
	}
	if cap(c.slab)-len(c.slab) < len(fanin) {
		c.slab = make([]ID, 0, max(64, 2*len(c.gates), len(fanin)))
	}
	lo := len(c.slab)
	c.slab = append(c.slab, fanin...)
	return c.slab[lo:len(c.slab):len(c.slab)]
}

// MustAddGate is AddGate that panics on error; it is intended for
// programmatic construction where the inputs are known to be valid.
func (c *Circuit) MustAddGate(t GateType, name string, fanin ...ID) ID {
	id, err := c.AddGate(t, name, fanin...)
	if err != nil {
		panic(err)
	}
	return id
}

// AddInput declares a new primary input and returns its ID.
func (c *Circuit) AddInput(name string) (ID, error) {
	id, err := c.AddGate(Input, name)
	if err != nil {
		return InvalidID, err
	}
	c.inputs = append(c.inputs, id)
	return id, nil
}

// MustAddInput is AddInput that panics on error.
func (c *Circuit) MustAddInput(name string) ID {
	id, err := c.AddInput(name)
	if err != nil {
		panic(err)
	}
	return id
}

// AddKey declares a new key input and returns its ID.
func (c *Circuit) AddKey(name string) (ID, error) {
	id, err := c.AddGate(Input, name)
	if err != nil {
		return InvalidID, err
	}
	c.keys = append(c.keys, id)
	return id, nil
}

// MustAddKey is AddKey that panics on error.
func (c *Circuit) MustAddKey(name string) ID {
	id, err := c.AddKey(name)
	if err != nil {
		panic(err)
	}
	return id
}

// MarkOutput appends an existing gate to the output list. A gate may be
// marked as output at most once.
func (c *Circuit) MarkOutput(id ID) error {
	if id < 0 || int(id) >= len(c.gates) {
		return fmt.Errorf("netlist: MarkOutput: gate %d does not exist", id)
	}
	for _, o := range c.outputs {
		if o == id {
			return fmt.Errorf("netlist: gate %q already marked as output", c.gates[id].Name)
		}
	}
	c.outputs = append(c.outputs, id)
	return nil
}

// MustMarkOutput is MarkOutput that panics on error.
func (c *Circuit) MustMarkOutput(id ID) {
	if err := c.MarkOutput(id); err != nil {
		panic(err)
	}
}

// ReplaceOutput swaps the output at position idx to refer to a different
// gate, preserving output ordering. Used when a locking scheme re-drives
// an output through new logic.
func (c *Circuit) ReplaceOutput(idx int, id ID) error {
	if idx < 0 || idx >= len(c.outputs) {
		return fmt.Errorf("netlist: ReplaceOutput: index %d out of range", idx)
	}
	if id < 0 || int(id) >= len(c.gates) {
		return fmt.Errorf("netlist: ReplaceOutput: gate %d does not exist", id)
	}
	c.outputs[idx] = id
	return nil
}

// Validate performs a full structural check: names resolve, fanin counts
// are legal, input/key/output lists reference existing gates of the right
// type, and the gate graph is acyclic.
func (c *Circuit) Validate() error {
	for id := range c.gates {
		g := &c.gates[id]
		if !g.Type.Valid() {
			return fmt.Errorf("netlist: gate %d has invalid type", id)
		}
		if g.Name == "" {
			return fmt.Errorf("netlist: gate %d has empty name", id)
		}
		if got, ok := c.names[g.Name]; !ok || got != ID(id) {
			return fmt.Errorf("netlist: gate %q name table mismatch", g.Name)
		}
		if n := len(g.Fanin); n < g.Type.MinFanin() || (g.Type.MaxFanin() >= 0 && n > g.Type.MaxFanin()) {
			return fmt.Errorf("netlist: gate %q: %s with %d fanins", g.Name, g.Type, n)
		}
		for _, f := range g.Fanin {
			if f < 0 || int(f) >= len(c.gates) {
				return fmt.Errorf("netlist: gate %q: dangling fanin %d", g.Name, f)
			}
		}
	}
	seen := make(map[ID]bool, len(c.inputs)+len(c.keys))
	for _, id := range c.inputs {
		if c.gates[id].Type != Input {
			return fmt.Errorf("netlist: primary input %q is not an Input gate", c.gates[id].Name)
		}
		if seen[id] {
			return fmt.Errorf("netlist: input %q listed twice", c.gates[id].Name)
		}
		seen[id] = true
	}
	for _, id := range c.keys {
		if c.gates[id].Type != Input {
			return fmt.Errorf("netlist: key input %q is not an Input gate", c.gates[id].Name)
		}
		if seen[id] {
			return fmt.Errorf("netlist: key input %q listed twice (or clashes with a primary input)", c.gates[id].Name)
		}
		seen[id] = true
	}
	// Every Input-type gate must be registered as either a primary input
	// or a key input; otherwise evaluation would leave it undefined.
	for id := range c.gates {
		if c.gates[id].Type == Input && !seen[ID(id)] {
			return fmt.Errorf("netlist: input gate %q not registered as input or key", c.gates[id].Name)
		}
	}
	for _, id := range c.outputs {
		if id < 0 || int(id) >= len(c.gates) {
			return fmt.Errorf("netlist: output references missing gate %d", id)
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// GateNames returns all gate names sorted lexicographically. Primarily a
// debugging and test aid.
func (c *Circuit) GateNames() []string {
	out := make([]string, 0, len(c.gates))
	for _, g := range c.gates {
		out = append(out, g.Name)
	}
	sort.Strings(out)
	return out
}

// FanoutCounts returns, for each gate, the number of gates that list it as
// a fanin (output markings do not count).
func (c *Circuit) FanoutCounts() []int {
	counts := make([]int, len(c.gates))
	for id := range c.gates {
		for _, f := range c.gates[id].Fanin {
			counts[f]++
		}
	}
	return counts
}

// String summarizes the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit %q: %d inputs, %d keys, %d outputs, %d gates",
		c.Name, len(c.inputs), len(c.keys), len(c.outputs), len(c.gates))
}
