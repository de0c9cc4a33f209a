package netlist

import "fmt"

// TopoOrder returns a topological ordering of all gates (fanins before
// fanouts). The result is cached and invalidated by AddGate. An error is
// returned if the gate graph contains a combinational cycle.
func (c *Circuit) TopoOrder() ([]ID, error) {
	if c.topoValid {
		return c.topo, nil
	}
	n := len(c.gates)
	off, adj := c.fanouts()
	indeg := make([]int32, n)
	// Kahn's algorithm with a FIFO queue: gates leave the queue in the
	// order they entered it, so order doubles as the queue.
	order := make([]ID, 0, n)
	for id := range c.gates {
		indeg[id] = int32(len(c.gates[id].Fanin))
		if indeg[id] == 0 {
			order = append(order, ID(id))
		}
	}
	for head := 0; head < len(order); head++ {
		id := order[head]
		for _, out := range adj[off[id]:off[id+1]] {
			indeg[out]--
			if indeg[out] == 0 {
				order = append(order, out)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("netlist: circuit %q contains a combinational cycle", c.Name)
	}
	c.topo = order
	c.topoValid = true
	return order, nil
}

// fanouts returns every gate's fanout list in compressed sparse row form:
// the gates reading gate g are adj[off[g]:off[g+1]], in ascending ID
// order, a gate listed once per fanin slot it takes g in.
func (c *Circuit) fanouts() (off []int32, adj []ID) {
	n := len(c.gates)
	off = make([]int32, n+1)
	for id := range c.gates {
		for _, f := range c.gates[id].Fanin {
			off[f+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj = make([]ID, off[n])
	// Fill using off[f] as gate f's write cursor; afterwards off[f] has
	// advanced to the old off[f+1], so shift the offsets back by one.
	for id := range c.gates {
		for _, f := range c.gates[id].Fanin {
			adj[off[f]] = ID(id)
			off[f]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, adj
}

// Levels returns, for each gate, its logic level: inputs and constants are
// level 0, every other gate is 1 + max(level of fanins).
func (c *Circuit) Levels() ([]int, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	levels := make([]int, len(c.gates))
	for _, id := range order {
		g := &c.gates[id]
		lv := 0
		for _, f := range g.Fanin {
			if levels[f]+1 > lv {
				lv = levels[f] + 1
			}
		}
		levels[id] = lv
	}
	return levels, nil
}

// Depth returns the maximum logic level over all outputs (0 for circuits
// with no logic).
func (c *Circuit) Depth() (int, error) {
	levels, err := c.Levels()
	if err != nil {
		return 0, err
	}
	d := 0
	for _, o := range c.outputs {
		if levels[o] > d {
			d = levels[o]
		}
	}
	return d, nil
}

// TransitiveFanin returns the set of gate IDs in the transitive fanin cone
// of the given roots (inclusive of the roots), as a boolean mask indexed
// by gate ID.
func (c *Circuit) TransitiveFanin(roots ...ID) []bool {
	mask := make([]bool, len(c.gates))
	stack := make([]ID, 0, len(roots))
	for _, r := range roots {
		if r >= 0 && int(r) < len(c.gates) && !mask[r] {
			mask[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.gates[id].Fanin {
			if !mask[f] {
				mask[f] = true
				stack = append(stack, f)
			}
		}
	}
	return mask
}

// TransitiveFanout returns the set of gate IDs in the transitive fanout
// cone of the given roots (inclusive), as a boolean mask indexed by ID.
func (c *Circuit) TransitiveFanout(roots ...ID) []bool {
	off, adj := c.fanouts()
	mask := make([]bool, len(c.gates))
	stack := make([]ID, 0, len(roots))
	for _, r := range roots {
		if r >= 0 && int(r) < len(c.gates) && !mask[r] {
			mask[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, out := range adj[off[id]:off[id+1]] {
			if !mask[out] {
				mask[out] = true
				stack = append(stack, out)
			}
		}
	}
	return mask
}
