package cnf

import (
	"fmt"

	"repro/internal/netlist"
)

// Hasher Tseitin-encodes circuits into a sink with structural hashing:
// gates with the same function over the same literal operands receive
// the same variable, so identical subcircuits collapse. Constants fold
// on the way in (AND/OR absorb and identity, XOR parity, complement
// pairs), so a circuit encoded with some inputs or key bits fixed costs
// only the logic those constants leave undetermined, and two copies of
// one netlist over shared literals share every gate outside the cone in
// which they differ. Only the transitive fanin of the requested outputs
// is encoded.
//
// Every primary input and key bit is passed as a literal; Const turns a
// fixed value into one. The gate table lives as long as the Hasher, so
// a Hasher must not outlive the clauses that define its gate variables:
// a caller whose clauses are retracted later (a scope-guarded sink)
// drops the Hasher together with them.
type Hasher struct {
	sink Sink
	sigs map[string]Lit
	sig  []byte // signature scratch
	zero Lit    // a literal fixed to false; zero.Neg() is true
}

// NewHasher returns a hashing encoder over sink. zero is a literal the
// sink already holds fixed to false, which the new encoder shares (an
// encoder over a scoped view of the same solver passes the outer
// encoder's Const(false)); 0 allocates a fresh variable and pins it
// false with a unit clause.
func NewHasher(sink Sink, zero Lit) *Hasher {
	if zero == 0 {
		zero = sink.NewVar()
		sink.Add(zero.Neg())
	}
	return &Hasher{sink: sink, sigs: make(map[string]Lit), zero: zero}
}

// Const returns the literal of a constant.
func (h *Hasher) Const(b bool) Lit {
	if b {
		return h.zero.Neg()
	}
	return h.zero
}

// Encode returns the literals of the listed outputs of the circuit (all
// outputs when outputs is nil), with its primary inputs and key inputs
// mapped to the given literals in declaration order. keys may be nil
// for a key-free circuit.
func (h *Hasher) Encode(c *netlist.Circuit, inputs, keys []Lit, outputs []int) ([]Lit, error) {
	if len(inputs) != c.NumInputs() {
		return nil, fmt.Errorf("cnf: %d input literals, circuit %q has %d inputs", len(inputs), c.Name, c.NumInputs())
	}
	if len(keys) != c.NumKeys() {
		return nil, fmt.Errorf("cnf: %d key literals, circuit %q has %d key inputs", len(keys), c.Name, c.NumKeys())
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	roots := c.Outputs()
	if outputs != nil {
		roots = make([]netlist.ID, len(outputs))
		for i, o := range outputs {
			roots[i] = c.Outputs()[o]
		}
	}
	need := c.TransitiveFanin(roots...)
	lit := make([]Lit, c.NumGates())
	for i, id := range c.Inputs() {
		lit[id] = inputs[i]
	}
	for i, id := range c.Keys() {
		lit[id] = keys[i]
	}
	var fanin []Lit
	for _, id := range order {
		if !need[id] {
			continue
		}
		g := c.Gate(id)
		switch g.Type {
		case netlist.Input:
			continue
		case netlist.Const0, netlist.Const1:
			lit[id] = h.Const(g.Type == netlist.Const1)
			continue
		case netlist.Buf:
			lit[id] = lit[g.Fanin[0]]
			continue
		case netlist.Not:
			lit[id] = lit[g.Fanin[0]].Neg()
			continue
		}
		// OR and NOR go through De Morgan, so every AND-family gate over
		// the same operands shares one variable whatever its polarity.
		negIn := g.Type == netlist.Or || g.Type == netlist.Nor
		fanin = fanin[:0]
		for _, f := range g.Fanin {
			if negIn {
				fanin = append(fanin, lit[f].Neg())
			} else {
				fanin = append(fanin, lit[f])
			}
		}
		var v Lit
		switch g.Type {
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			v = h.And(fanin)
		case netlist.Xor, netlist.Xnor:
			v = h.Xor(fanin)
		default:
			return nil, fmt.Errorf("cnf: cannot encode gate %q of type %s", g.Name, g.Type)
		}
		if g.Type == netlist.Nand || g.Type == netlist.Or || g.Type == netlist.Xnor {
			v = v.Neg()
		}
		lit[id] = v
	}
	outs := make([]Lit, len(roots))
	for i, o := range roots {
		outs[i] = lit[o]
	}
	return outs, nil
}

// Diff returns a literal that is true exactly when some pair a[i], b[i]
// differs: the OR of the pairs' XORs. Pairs that hashed to one literal
// are provably equal and drop out; when all do, Diff is Const(false).
func (h *Hasher) Diff(a, b []Lit) Lit {
	ne := make([]Lit, 0, len(a))
	for i := range a {
		if x := h.Xor([]Lit{a[i], b[i]}); x != h.zero {
			ne = append(ne, x.Neg())
		}
	}
	return h.And(ne).Neg()
}

// And returns a literal for the conjunction of in (which it reorders):
// a false operand absorbs, true operands drop out, duplicates merge, and
// a literal beside its complement makes the gate false.
func (h *Hasher) And(in []Lit) Lit {
	ops := in[:0]
	for _, l := range in {
		if l == h.zero {
			return h.zero
		}
		if l != h.zero.Neg() {
			ops = append(ops, l)
		}
	}
	sortByVar(ops)
	n := 0
	for _, l := range ops {
		if n > 0 && ops[n-1].Var() == l.Var() {
			if ops[n-1] != l {
				return h.zero
			}
			continue
		}
		ops[n] = l
		n++
	}
	switch n {
	case 0:
		return h.zero.Neg()
	case 1:
		return ops[0]
	}
	return h.gate(netlist.And, ops[:n])
}

// Xor returns a literal for the parity of in (which it reorders):
// constants and complemented operands flip the parity, and equal
// operands cancel in pairs.
func (h *Hasher) Xor(in []Lit) Lit {
	parity := false
	ops := in[:0]
	for _, l := range in {
		switch {
		case l.Var() == h.zero.Var():
			parity = parity != (l != h.zero)
			continue
		case !l.Sign():
			parity = !parity
			l = l.Neg()
		}
		ops = append(ops, l)
	}
	sortByVar(ops)
	n := 0
	for _, l := range ops {
		if n > 0 && ops[n-1] == l {
			n--
			continue
		}
		ops[n] = l
		n++
	}
	var v Lit
	switch n {
	case 0:
		v = h.zero
	case 1:
		v = ops[0]
	default:
		v = h.gate(netlist.Xor, ops[:n])
	}
	if parity {
		v = v.Neg()
	}
	return v
}

// sortByVar orders literals by variable, so duplicates and complementary
// pairs sit next to each other and commutative operand lists hash alike.
// Gate operand lists are short, so an insertion sort does it.
func sortByVar(ls []Lit) {
	less := func(a, b Lit) bool {
		if va, vb := a.Var(), b.Var(); va != vb {
			return va < vb
		}
		return a < b
	}
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && less(ls[j], ls[j-1]); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// gate returns the hashed variable of base function t (And or Xor) over
// the sorted, folded operands, encoding it on first sight.
func (h *Hasher) gate(t netlist.GateType, ops []Lit) Lit {
	sig := append(h.sig[:0], byte(t))
	for _, l := range ops {
		v := uint32(int32(l))
		sig = append(sig, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	h.sig = sig
	if v, ok := h.sigs[string(sig)]; ok {
		return v
	}
	v := h.sink.NewVar()
	switch t {
	case netlist.And:
		encodeAnd(h.sink, v, ops, false)
	case netlist.Xor:
		encodeXor(h.sink, v, ops, false)
	default:
		panic("cnf: hashed gate of unexpected base type " + t.String())
	}
	h.sigs[string(sig)] = v
	return v
}
