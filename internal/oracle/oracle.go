// Package oracle models the attacker's black-box access to an activated
// chip. Every attack in this repository consults the design exclusively
// through the Oracle interface, which makes the "no structural analysis"
// property of the DIP-learning attack auditable: the oracle counts
// queries and exposes nothing but input/output behaviour.
package oracle

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/netlist"
)

// Oracle is black-box input/output access to a functional chip.
type Oracle interface {
	// NumInputs returns the width of the chip's input port.
	NumInputs() int
	// NumOutputs returns the width of the chip's output port.
	NumOutputs() int
	// Query evaluates one input pattern.
	Query(in []bool) ([]bool, error)
	// Query64 evaluates 64 packed patterns at once (bit i of each word
	// is pattern i); it exists because simulation-heavy attacks would
	// otherwise be dominated by per-pattern overhead.
	Query64(in []uint64) ([]uint64, error)
}

// Sim is an Oracle backed by simulating the original (unlocked) netlist,
// standing in for the activated chip of the paper's threat model. It
// counts queries and is safe for concurrent use: each in-flight query
// takes a private simulator (netlist simulators are single-goroutine
// objects), and the query counters are atomics, so concurrent callers
// never contend on a global lock. A query takes the home simulator when
// it is free; only queries that overlap it draw from a pool. The home
// simulator is held by the Sim itself, so unlike pooled ones it is never
// dropped at a garbage collection and never rebuilt inside a query.
type Sim struct {
	circuit *netlist.Circuit
	home    atomic.Pointer[simulator]
	pool    sync.Pool
	inputs  int
	outputs int
	queries atomic.Uint64 // single patterns evaluated (64 per Query64 call)
	calls   atomic.Uint64
}

// simulator is one query's private evaluation state: a netlist
// simulator and the 512-lane input bank EvalMany packs eight batches
// into, kept with it so a call does not allocate a fresh bank.
type simulator struct {
	*netlist.Simulator
	in8 [][8]uint64
}

// NewSim wraps an original circuit as an oracle. The circuit must not
// have key inputs — an activated chip has its key burned in.
func NewSim(original *netlist.Circuit) (*Sim, error) {
	if original.NumKeys() != 0 {
		return nil, fmt.Errorf("oracle: circuit %q still has %d key inputs; activate it first",
			original.Name, original.NumKeys())
	}
	// Build the first simulator eagerly: it surfaces construction errors
	// (cycles, invalid gates) at wrap time and warms the circuit's
	// topological-order cache before any concurrent use.
	sim, err := netlist.NewSimulator(original)
	if err != nil {
		return nil, err
	}
	first := &simulator{Simulator: sim}
	o := &Sim{circuit: original, inputs: original.NumInputs(), outputs: original.NumOutputs()}
	o.pool.New = func() any {
		s, err := netlist.NewSimulator(o.circuit)
		if err != nil {
			// Construction succeeded once in NewSim and the circuit is
			// not mutated afterwards, so this cannot fail.
			panic(fmt.Sprintf("oracle: simulator construction failed after successful warm-up: %v", err))
		}
		return &simulator{Simulator: s}
	}
	o.home.Store(first)
	return o, nil
}

// get takes the home simulator, or a pooled one while the home
// simulator is in use.
func (o *Sim) get() *simulator {
	if s := o.home.Swap(nil); s != nil {
		return s
	}
	return o.pool.Get().(*simulator)
}

// put returns a simulator: home if home is empty, else to the pool.
func (o *Sim) put(s *simulator) {
	if !o.home.CompareAndSwap(nil, s) {
		o.pool.Put(s)
	}
}

// MustNewSim is NewSim that panics on error.
func MustNewSim(original *netlist.Circuit) *Sim {
	o, err := NewSim(original)
	if err != nil {
		panic(err)
	}
	return o
}

// NumInputs implements Oracle.
func (o *Sim) NumInputs() int { return o.inputs }

// NumOutputs implements Oracle.
func (o *Sim) NumOutputs() int { return o.outputs }

// Query implements Oracle.
func (o *Sim) Query(in []bool) ([]bool, error) {
	if len(in) != o.inputs {
		return nil, fmt.Errorf("oracle: Query: got %d inputs, want %d", len(in), o.inputs)
	}
	o.queries.Add(1)
	o.calls.Add(1)
	sim := o.get()
	out, err := sim.Run(in, nil)
	if err != nil {
		o.put(sim)
		return nil, err
	}
	// Copy: the simulator owns its output buffer, and once put back
	// another goroutine may overwrite it.
	res := append([]bool(nil), out...)
	o.put(sim)
	return res, nil
}

// Query64 implements Oracle.
func (o *Sim) Query64(in []uint64) ([]uint64, error) {
	if len(in) != o.inputs {
		return nil, fmt.Errorf("oracle: Query64: got %d input words, want %d", len(in), o.inputs)
	}
	o.queries.Add(64)
	o.calls.Add(1)
	sim := o.get()
	out, err := sim.Run64(in, nil)
	if err != nil {
		o.put(sim)
		return nil, err
	}
	res := append([]uint64(nil), out...)
	o.put(sim)
	return res, nil
}

// EvalMany evaluates many packed 64-pattern batches and returns one
// output slice per input batch, in input order. Every batch is
// evaluated on the caller's goroutine with one simulator, but because
// nothing here locks, many goroutines can be inside EvalMany (or
// Query/Query64) simultaneously — each gets a distinct simulator.
// Batches are packed eight at a time through the simulator's 512-lane
// kernel; a remainder of fewer than eight runs the 64-lane path. The output
// slices share one backing array, each capped at its own batch, so an
// append to one batch reallocates instead of overwriting the next.
func (o *Sim) EvalMany(ins [][]uint64) ([][]uint64, error) {
	for _, in := range ins {
		if len(in) != o.inputs {
			return nil, fmt.Errorf("oracle: EvalMany: got %d input words, want %d", len(in), o.inputs)
		}
	}
	o.queries.Add(64 * uint64(len(ins)))
	o.calls.Add(uint64(len(ins)))
	sim := o.get()
	defer o.put(sim)
	outs := make([][]uint64, len(ins))
	n := o.outputs
	words := make([]uint64, len(ins)*n)
	for i := range outs {
		outs[i] = words[i*n : (i+1)*n : (i+1)*n]
	}
	i := 0
	if len(ins) >= 8 {
		if sim.in8 == nil {
			sim.in8 = make([][8]uint64, o.inputs)
		}
		in8 := sim.in8
		for ; i+8 <= len(ins); i += 8 {
			for k := 0; k < o.inputs; k++ {
				for j := 0; j < 8; j++ {
					in8[k][j] = ins[i+j][k]
				}
			}
			out8, err := sim.Run512(in8, nil)
			if err != nil {
				return nil, err
			}
			for j := 0; j < 8; j++ {
				out := outs[i+j]
				for k := range out {
					out[k] = out8[k][j]
				}
			}
		}
	}
	for ; i < len(ins); i++ {
		out, err := sim.Run64(ins[i], nil)
		if err != nil {
			return nil, err
		}
		copy(outs[i], out)
	}
	return outs, nil
}

// Queries returns the number of input patterns evaluated so far.
func (o *Sim) Queries() uint64 { return o.queries.Load() }

// Calls returns the number of Query/Query64 invocations so far.
func (o *Sim) Calls() uint64 { return o.calls.Load() }

// Activate bakes a key into a locked circuit, producing the functional
// circuit an oracle would simulate: key inputs become constants. It is
// the bridge between "locked netlist + correct key" and "activated chip".
func Activate(locked *netlist.Circuit, key []bool) (*netlist.Circuit, error) {
	if len(key) != locked.NumKeys() {
		return nil, fmt.Errorf("oracle: key length %d, circuit has %d key inputs", len(key), locked.NumKeys())
	}
	out := netlist.New(locked.Name + "_activated")
	inputMap := make([]netlist.ID, locked.NumInputs())
	for i, id := range locked.Inputs() {
		inputMap[i] = out.MustAddInput(locked.Gate(id).Name)
	}
	// Rebuild with keys replaced by constants: import cannot be used
	// directly (it would re-declare keys), so walk gates manually.
	order, err := locked.TopoOrder()
	if err != nil {
		return nil, err
	}
	remap := make([]netlist.ID, locked.NumGates())
	for i := range remap {
		remap[i] = netlist.InvalidID
	}
	for i, id := range locked.Inputs() {
		remap[id] = inputMap[i]
	}
	for i, id := range locked.Keys() {
		typ := netlist.Const0
		if key[i] {
			typ = netlist.Const1
		}
		kid, err := out.AddGate(typ, locked.Gate(id).Name)
		if err != nil {
			return nil, err
		}
		remap[id] = kid
	}
	for _, id := range order {
		g := locked.Gate(id)
		if g.Type == netlist.Input {
			if remap[id] == netlist.InvalidID {
				return nil, fmt.Errorf("oracle: unregistered input %q", g.Name)
			}
			continue
		}
		fanin := make([]netlist.ID, len(g.Fanin))
		for j, f := range g.Fanin {
			fanin[j] = remap[f]
		}
		nid, err := out.AddGate(g.Type, g.Name, fanin...)
		if err != nil {
			return nil, err
		}
		remap[id] = nid
	}
	for _, o := range locked.Outputs() {
		if err := out.MarkOutput(remap[o]); err != nil {
			return nil, err
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
