package miter

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// hashedEncoder Tseitin-encodes circuits into a shared solver with
// structural hashing: gates with the same function over the same literal
// operands receive the same variable, so identical subcircuits collapse.
// Constants fold on the way in (AND/OR absorb and identity, XOR parity),
// so a circuit encoded under a fixed key costs only the logic its key
// leaves undetermined, and two keys on one netlist share every gate
// outside their key-dependent cone. This is the lightweight SAT-sweeping
// that makes equivalence checking of "host + small difference" circuit
// pairs (the common case when checking recovered keys) essentially free.
type hashedEncoder struct {
	solver *sat.Solver
	sigs   map[string]cnf.Lit
	sig    []byte  // signature scratch
	zero   cnf.Lit // a literal fixed to false; zero.Neg() is true
}

func newHashedEncoder(solver *sat.Solver) *hashedEncoder {
	z := solver.NewVar()
	solver.Add(z.Neg())
	return &hashedEncoder{solver: solver, sigs: make(map[string]cnf.Lit), zero: z}
}

// encode returns the literals of the listed outputs of the circuit (all
// outputs when outputs is nil), mapping its primary inputs to the given
// literals. Only the outputs' transitive fanin is encoded. key, when
// non-nil, fixes the circuit's key inputs to constants (one value per
// key input, in key order); a nil key requires a key-free circuit.
func (h *hashedEncoder) encode(c *netlist.Circuit, inputLits []cnf.Lit, key []bool, outputs []int) ([]cnf.Lit, error) {
	if len(key) != c.NumKeys() {
		return nil, fmt.Errorf("miter: key length %d, circuit %q has %d key inputs", len(key), c.Name, c.NumKeys())
	}
	if len(inputLits) != c.NumInputs() {
		return nil, fmt.Errorf("miter: %d input literals for %d inputs", len(inputLits), c.NumInputs())
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
	lit := make([]cnf.Lit, c.NumGates())
	for i, id := range c.Inputs() {
		lit[id] = inputLits[i]
	}
	for i, id := range c.Keys() {
		lit[id] = h.constant(key[i])
	}
	var fanin []cnf.Lit
	for _, id := range order {
		if !need[id] {
			continue
		}
		g := c.Gate(id)
		switch g.Type {
		case netlist.Input:
			continue
		case netlist.Const0, netlist.Const1:
			lit[id] = h.constant(g.Type == netlist.Const1)
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
		var v cnf.Lit
		switch g.Type {
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			v = h.and(fanin)
		case netlist.Xor, netlist.Xnor:
			v = h.xor(fanin)
		default:
			return nil, fmt.Errorf("miter: cannot encode gate %q of type %s", g.Name, g.Type)
		}
		if g.Type == netlist.Nand || g.Type == netlist.Or || g.Type == netlist.Xnor {
			v = v.Neg()
		}
		lit[id] = v
	}
	outs := make([]cnf.Lit, len(roots))
	for i, o := range roots {
		outs[i] = lit[o]
	}
	return outs, nil
}

func (h *hashedEncoder) constant(b bool) cnf.Lit {
	if b {
		return h.zero.Neg()
	}
	return h.zero
}

// and returns a literal for the conjunction of in (which it reorders):
// a false operand absorbs, true operands drop out, duplicates merge, and
// a literal beside its complement makes the gate false.
func (h *hashedEncoder) and(in []cnf.Lit) cnf.Lit {
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

// xor returns a literal for the parity of in (which it reorders):
// constants and complemented operands flip the parity, and equal
// operands cancel in pairs.
func (h *hashedEncoder) xor(in []cnf.Lit) cnf.Lit {
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
	var v cnf.Lit
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
func sortByVar(ls []cnf.Lit) {
	less := func(a, b cnf.Lit) bool {
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
func (h *hashedEncoder) gate(t netlist.GateType, ops []cnf.Lit) cnf.Lit {
	sig := append(h.sig[:0], byte(t))
	for _, l := range ops {
		v := uint32(int32(l))
		sig = append(sig, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	h.sig = sig
	if v, ok := h.sigs[string(sig)]; ok {
		return v
	}
	v := h.solver.NewVar()
	h.emit(t, v, ops)
	h.sigs[string(sig)] = v
	return v
}

func (h *hashedEncoder) emit(t netlist.GateType, v cnf.Lit, in []cnf.Lit) {
	s := h.solver
	switch t {
	case netlist.And:
		long := make([]cnf.Lit, 0, len(in)+1)
		for _, a := range in {
			s.Add(v.Neg(), a)
			long = append(long, a.Neg())
		}
		s.Add(append(long, v)...)
	case netlist.Xor:
		acc := in[0]
		for i := 1; i < len(in); i++ {
			var next cnf.Lit
			if i == len(in)-1 {
				next = v
			} else {
				next = s.NewVar()
			}
			s.Add(next.Neg(), acc, in[i])
			s.Add(next.Neg(), acc.Neg(), in[i].Neg())
			s.Add(next, acc.Neg(), in[i])
			s.Add(next, acc, in[i].Neg())
			acc = next
		}
	default:
		panic("miter: emit: unexpected base gate " + t.String())
	}
}

// ProveEquivalentHashed decides functional equivalence of two key-free
// circuits using structural hashing before SAT. Semantically identical to
// ProveEquivalent, but fast when the circuits share most of their logic.
func ProveEquivalentHashed(a, b *netlist.Circuit) (bool, []bool, error) {
	if a.NumKeys() != 0 || b.NumKeys() != 0 {
		return false, nil, fmt.Errorf("miter: equivalence check needs key-free circuits")
	}
	return proveHashed(a, nil, b, nil, nil, 0)
}

// ProveKeysEquivalentBudget decides whether a locked circuit computes
// the same function under keyA and under keyB. Both keys enter one
// hashed encoding as constants, so the copies share every gate their
// keys do not reach and only the key-dependent cones face the solver;
// the verdict is that of ProveEquivalentHashed on the two activated
// circuits. conflictBudget bounds the SAT search (0 = unlimited): when
// it runs out the pair is reported equivalent=true with a nil witness
// and no error — callers that need certainty must pass 0.
func ProveKeysEquivalentBudget(locked *netlist.Circuit, keyA, keyB []bool, conflictBudget uint64) (bool, []bool, error) {
	if len(keyA) != locked.NumKeys() || len(keyB) != locked.NumKeys() {
		return false, nil, fmt.Errorf("miter: key lengths %d/%d, circuit %q has %d key inputs",
			len(keyA), len(keyB), locked.Name, locked.NumKeys())
	}
	// Outputs no key reaches compute one function under every key: only
	// the others, with the logic feeding them, are encoded.
	order, err := locked.TopoOrder()
	if err != nil {
		return false, nil, err
	}
	keyed := make([]bool, locked.NumGates())
	for _, k := range locked.Keys() {
		keyed[k] = true
	}
	for _, id := range order {
		for _, f := range locked.Gate(id).Fanin {
			if keyed[f] {
				keyed[id] = true
				break
			}
		}
	}
	outputs := []int{}
	for i, o := range locked.Outputs() {
		if keyed[o] {
			outputs = append(outputs, i)
		}
	}
	if len(outputs) == 0 {
		return true, nil, nil
	}
	return proveHashed(locked, keyA, locked, keyB, outputs, conflictBudget)
}

// proveHashed encodes circuit a under keyA and circuit b under keyB over
// shared input literals and searches for an input on which any listed
// output pair (every pair when outputs is nil) differs.
func proveHashed(a *netlist.Circuit, keyA []bool, b *netlist.Circuit, keyB []bool, outputs []int, conflictBudget uint64) (bool, []bool, error) {
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return false, nil, fmt.Errorf("miter: shape mismatch: %s vs %s", a, b)
	}
	solver := sat.New()
	solver.ConflictBudget = conflictBudget
	h := newHashedEncoder(solver)
	inputLits := make([]cnf.Lit, a.NumInputs())
	for i := range inputLits {
		inputLits[i] = solver.NewVar()
	}
	outsA, err := h.encode(a, inputLits, keyA, outputs)
	if err != nil {
		return false, nil, err
	}
	outsB, err := h.encode(b, inputLits, keyB, outputs)
	if err != nil {
		return false, nil, err
	}
	// diff = OR of output XORs; assume it true. Output pairs that hashed
	// to one literal are provably equal and drop out.
	diffs := make([]cnf.Lit, 0, len(outsA))
	for i := range outsA {
		if x := h.xor([]cnf.Lit{outsA[i], outsB[i]}); x != h.zero {
			diffs = append(diffs, x)
		}
	}
	if len(diffs) == 0 {
		return true, nil, nil
	}
	diff := h.and(negate(diffs)).Neg()
	switch solver.Solve(diff) {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		witness := make([]bool, len(inputLits))
		for i, l := range inputLits {
			witness[i] = solver.ModelValue(l)
		}
		return false, witness, nil
	}
	if conflictBudget > 0 {
		return true, nil, nil // budget exhausted: treated as "no difference found"
	}
	return false, nil, fmt.Errorf("miter: solver returned UNKNOWN")
}

func negate(ls []cnf.Lit) []cnf.Lit {
	for i := range ls {
		ls[i] = ls[i].Neg()
	}
	return ls
}

// ProveUnlockedHashed is ProveUnlocked using the hashed encoder, with
// the key folded into the locked circuit's encoding.
func ProveUnlockedHashed(locked *netlist.Circuit, key []bool, reference *netlist.Circuit) (bool, error) {
	if reference.NumKeys() != 0 {
		return false, fmt.Errorf("miter: reference circuit %q has key inputs", reference.Name)
	}
	eq, _, err := proveHashed(locked, key, reference, nil, nil, 0)
	return eq, err
}
