package cnf

import (
	"fmt"

	"repro/internal/netlist"
)

// Sink receives an encoding: fresh variables and clauses. *Formula
// implements Sink; so does the CDCL solver in internal/sat, which is what
// makes incremental attack loops possible (new circuit copies are encoded
// straight into a live solver).
type Sink interface {
	// NewVar allocates a fresh variable, returned as its positive literal.
	NewVar() Lit
	// Add appends a clause. lits is only lent for the call: Add copies
	// what it keeps and must not retain the slice after it returns,
	// because the encoders pass one reused buffer for every clause.
	Add(lits ...Lit)
}

// emitter adds clauses to a sink through one reused literal buffer. A
// literal list passed straight to Sink.Add escapes through the interface
// and costs an allocation per clause; the Sink contract (Add keeps no
// reference to lits) lets every clause share the buffer instead.
type emitter struct {
	sink Sink
	buf  []Lit
}

// add emits one clause.
func (e *emitter) add(lits ...Lit) {
	e.buf = append(e.buf[:0], lits...)
	e.sink.Add(e.buf...)
}

// Encoding is the result of Tseitin-encoding a circuit: the variable
// assigned to every gate.
type Encoding struct {
	// GateVar[id] is the positive literal of the variable carrying gate
	// id's value.
	GateVar []Lit
}

// Var returns the literal for a gate's value.
func (e *Encoding) Var(id netlist.ID) Lit { return e.GateVar[id] }

// InputLits returns the literals of the circuit's primary inputs in order.
func (e *Encoding) InputLits(c *netlist.Circuit) []Lit {
	out := make([]Lit, c.NumInputs())
	for i, id := range c.Inputs() {
		out[i] = e.GateVar[id]
	}
	return out
}

// KeyLits returns the literals of the circuit's key inputs in order.
func (e *Encoding) KeyLits(c *netlist.Circuit) []Lit {
	out := make([]Lit, c.NumKeys())
	for i, id := range c.Keys() {
		out[i] = e.GateVar[id]
	}
	return out
}

// OutputLits returns the literals of the circuit's outputs in order.
func (e *Encoding) OutputLits(c *netlist.Circuit) []Lit {
	out := make([]Lit, c.NumOutputs())
	for i, id := range c.Outputs() {
		out[i] = e.GateVar[id]
	}
	return out
}

// Encode Tseitin-encodes the circuit into a fresh formula. Every gate
// gets a variable; gate semantics are encoded as the standard
// equisatisfiable clause sets (n-ary AND/OR directly, XOR/XNOR as a
// chain of binary constraints with auxiliary variables).
func Encode(c *netlist.Circuit) (*Encoding, *Formula, error) {
	f := &Formula{}
	enc, err := EncodeInto(c, f)
	return enc, f, err
}

// EncodeInto encodes the circuit into an existing sink (allocating fresh
// variables), allowing several circuits to share one formula or one live
// solver instance — the building block for miters and incremental attack
// loops.
func EncodeInto(c *netlist.Circuit, f Sink) (*Encoding, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	enc := &Encoding{GateVar: make([]Lit, c.NumGates())}
	e := &emitter{sink: f}
	var fanin []Lit
	for _, id := range order {
		g := c.Gate(id)
		v := f.NewVar()
		enc.GateVar[id] = v
		fanin = fanin[:0]
		for _, in := range g.Fanin {
			fanin = append(fanin, enc.GateVar[in])
		}
		switch g.Type {
		case netlist.Input:
			// Free variable.
		case netlist.Const0:
			e.add(v.Neg())
		case netlist.Const1:
			e.add(v)
		case netlist.Buf:
			a := fanin[0]
			e.add(v.Neg(), a)
			e.add(v, a.Neg())
		case netlist.Not:
			a := fanin[0]
			e.add(v.Neg(), a.Neg())
			e.add(v, a)
		case netlist.And, netlist.Nand:
			encodeAnd(e, v, fanin, g.Type == netlist.Nand)
		case netlist.Or, netlist.Nor:
			encodeOr(e, v, fanin, g.Type == netlist.Nor)
		case netlist.Xor, netlist.Xnor:
			encodeXor(e, v, fanin, g.Type == netlist.Xnor)
		default:
			return nil, fmt.Errorf("cnf: cannot encode gate type %s", g.Type)
		}
	}
	return enc, nil
}

// encodeAnd emits v ↔ AND(in...) (or v ↔ NAND when inverted).
func encodeAnd(e *emitter, v Lit, in []Lit, inverted bool) {
	out := v
	if inverted {
		out = v.Neg()
	}
	// out → a for each a ; (a ∧ b ∧ …) → out.
	for _, a := range in {
		e.add(out.Neg(), a)
	}
	long := e.buf[:0]
	for _, a := range in {
		long = append(long, a.Neg())
	}
	e.buf = append(long, out)
	e.sink.Add(e.buf...)
}

// encodeOr emits v ↔ OR(in...) (or v ↔ NOR when inverted).
func encodeOr(e *emitter, v Lit, in []Lit, inverted bool) {
	out := v
	if inverted {
		out = v.Neg()
	}
	for _, a := range in {
		e.add(out, a.Neg())
	}
	long := e.buf[:0]
	long = append(long, in...)
	e.buf = append(long, out.Neg())
	e.sink.Add(e.buf...)
}

// encodeXorPair emits v ↔ a XOR b.
func encodeXorPair(e *emitter, v, a, b Lit) {
	e.add(v.Neg(), a, b)
	e.add(v.Neg(), a.Neg(), b.Neg())
	e.add(v, a.Neg(), b)
	e.add(v, a, b.Neg())
}

// encodeXor emits v ↔ XOR(in...) (parity), or its complement for XNOR,
// chaining binary XORs through auxiliary variables.
func encodeXor(e *emitter, v Lit, in []Lit, inverted bool) {
	acc := in[0]
	for i := 1; i < len(in); i++ {
		var next Lit
		if i == len(in)-1 && !inverted {
			next = v
		} else {
			next = e.sink.NewVar()
		}
		encodeXorPair(e, next, acc, in[i])
		acc = next
	}
	if inverted {
		// v ↔ ¬acc
		e.add(v.Neg(), acc.Neg())
		e.add(v, acc)
	} else if len(in) == 1 {
		e.add(v.Neg(), acc)
		e.add(v, acc.Neg())
	}
}
