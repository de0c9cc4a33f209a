package netlist

import "fmt"

// Simulator evaluates a circuit repeatedly while reusing internal buffers.
// Construction compiles the circuit once into a flat instruction stream
// (see Program); every run then executes the compiled program with no
// per-gate dispatch or allocation, at 64 or 512 bit-parallel lanes.
// It is not safe for concurrent use; create one per goroutine.
type Simulator struct {
	c      *Circuit
	prog   *Program
	vals   []uint64 // width-1 register file, indexed by gate ID
	outBuf []uint64 // Run64 output buffer (one word per primary output)

	// Wide register bank, allocated on first use. Register i occupies
	// words [i*8, (i+1)*8).
	vals8 []uint64
	out8  [][8]uint64

	// Scalar Run pack/unpack scratch.
	inW  []uint64
	keyW []uint64
	outB []bool
}

// NewSimulator prepares a simulator for the circuit. The circuit must be
// acyclic; structural changes to the circuit after construction
// invalidate the simulator.
func NewSimulator(c *Circuit) (*Simulator, error) {
	prog, err := CompileCircuit(c)
	if err != nil {
		return nil, err
	}
	return &Simulator{
		c:    c,
		prog: prog,
		vals: make([]uint64, c.NumGates()),
	}, nil
}

// MustNewSimulator is NewSimulator that panics on error.
func MustNewSimulator(c *Circuit) *Simulator {
	s, err := NewSimulator(c)
	if err != nil {
		panic(err)
	}
	return s
}

// Run64 evaluates 64 packed patterns at once. in and key hold one word per
// primary input / key input (bit i of each word is pattern i); the
// returned slice holds one word per primary output and is owned by the
// simulator (valid until the next Run call).
func (s *Simulator) Run64(in, key []uint64) ([]uint64, error) {
	c := s.c
	if len(in) != c.NumInputs() {
		return nil, fmt.Errorf("netlist: Run64: got %d input words, want %d", len(in), c.NumInputs())
	}
	if len(key) != c.NumKeys() {
		return nil, fmt.Errorf("netlist: Run64: got %d key words, want %d", len(key), c.NumKeys())
	}
	for i, id := range c.inputs {
		s.vals[id] = in[i]
	}
	for i, id := range c.keys {
		s.vals[id] = key[i]
	}
	s.prog.Exec(s.vals)
	if cap(s.outBuf) < c.NumOutputs() {
		s.outBuf = make([]uint64, c.NumOutputs())
	}
	out := s.outBuf[:c.NumOutputs()]
	for i, id := range c.outputs {
		out[i] = s.vals[id]
	}
	return out, nil
}

// Run512 evaluates 512 packed patterns at once: element [j] of each
// 8-word bank holds patterns 64j .. 64j+63. The returned slice holds one
// bank per primary output and is owned by the simulator (valid until the
// next Run512 call). NodeValue64 reflects only Run64/Run executions.
func (s *Simulator) Run512(in, key [][8]uint64) ([][8]uint64, error) {
	c := s.c
	if len(in) != c.NumInputs() {
		return nil, fmt.Errorf("netlist: Run512: got %d input banks, want %d", len(in), c.NumInputs())
	}
	if len(key) != c.NumKeys() {
		return nil, fmt.Errorf("netlist: Run512: got %d key banks, want %d", len(key), c.NumKeys())
	}
	if s.vals8 == nil {
		s.vals8 = make([]uint64, c.NumGates()*8)
		s.out8 = make([][8]uint64, c.NumOutputs())
	}
	for i, id := range c.inputs {
		copy(s.vals8[int(id)*8:], in[i][:])
	}
	for i, id := range c.keys {
		copy(s.vals8[int(id)*8:], key[i][:])
	}
	s.prog.Exec512(s.vals8)
	for i, id := range c.outputs {
		copy(s.out8[i][:], s.vals8[int(id)*8:])
	}
	return s.out8, nil
}

// Program returns the simulator's compiled gate program. The register
// file is indexed by gate ID; Input-type gates have no instructions.
func (s *Simulator) Program() *Program { return s.prog }

// Run evaluates a single pattern. The returned slice holds one bool per
// primary output and is owned by the simulator (valid until the next
// Run call) — copy it before running the simulator again.
func (s *Simulator) Run(in, key []bool) ([]bool, error) {
	if cap(s.inW) < len(in) {
		s.inW = make([]uint64, len(in))
	}
	if cap(s.keyW) < len(key) {
		s.keyW = make([]uint64, len(key))
	}
	inW := s.inW[:len(in)]
	keyW := s.keyW[:len(key)]
	for i, b := range in {
		if b {
			inW[i] = 1
		} else {
			inW[i] = 0
		}
	}
	for i, b := range key {
		if b {
			keyW[i] = 1
		} else {
			keyW[i] = 0
		}
	}
	w, err := s.Run64(inW, keyW)
	if err != nil {
		return nil, err
	}
	if cap(s.outB) < len(w) {
		s.outB = make([]bool, len(w))
	}
	out := s.outB[:len(w)]
	for i := range w {
		out[i] = w[i]&1 != 0
	}
	return out, nil
}

// NodeValue64 returns the bit-parallel value of an arbitrary gate after
// the most recent Run64/Run call.
func (s *Simulator) NodeValue64(id ID) uint64 { return s.vals[id] }

// NodeValue returns the scalar (pattern-0) value of an arbitrary gate
// after the most recent Run64/Run call.
func (s *Simulator) NodeValue(id ID) bool { return s.vals[id]&1 != 0 }

// Eval is a convenience one-shot scalar evaluation of the circuit.
func (c *Circuit) Eval(in, key []bool) ([]bool, error) {
	s, err := NewSimulator(c)
	if err != nil {
		return nil, err
	}
	return s.Run(in, key)
}

// BoolsToWord packs up to 64 bools into a word, bit i = v[i].
func BoolsToWord(v []bool) uint64 {
	var w uint64
	for i, b := range v {
		if b {
			w |= 1 << uint(i)
		}
	}
	return w
}

// WordToBools unpacks the low n bits of w into a bool slice.
func WordToBools(w uint64, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = w&(1<<uint(i)) != 0
	}
	return out
}

// PatternFromUint sets bools from the binary representation of x: element
// i receives bit i of x. It is the canonical mapping between integers and
// input patterns used throughout this repository.
func PatternFromUint(x uint64, n int) []bool { return WordToBools(x, n) }

// UintFromPattern is the inverse of PatternFromUint for n ≤ 64.
func UintFromPattern(p []bool) uint64 { return BoolsToWord(p) }
