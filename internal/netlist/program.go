package netlist

import "fmt"

// This file implements compiled gate programs: a circuit's topological
// order flattened into a flat instruction stream of fused two-input
// operations over a dense register file. Compiling once removes the
// per-gate dynamic dispatch (fanin gather + Eval64 type switch) from the
// simulation hot loop, and the same program executes unchanged at word
// widths 1 and 8 (64/512 bit-parallel lanes) — the wide kernel just
// strides the register file. Schedule then groups the stream by
// dependency level and opcode, so the kernels' opcode dispatch repeats
// in long runs instead of changing on almost every op.

// Program opcodes. Every op is at most two-input: n-ary gates are
// decomposed at compile time into a chain of accumulating two-input ops
// (see Emit), with the inverted variant fused into the final op.
const (
	opConst0 uint8 = iota
	opConst1
	opBuf
	opNot
	opAnd2
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
)

// progOp is one instruction: regs[dst] = code(regs[a], regs[b]).
// Unary ops set b = a; constant ops set a = b = dst, so every operand of
// every op is a valid register and the wide kernels can form their
// array pointers unconditionally.
type progOp struct {
	code uint8
	a    int32
	b    int32
	dst  int32
}

// Program is a compiled gate program. Build one with NewProgram + Emit
// (in topological order), optionally Schedule it, then execute it with
// Exec/Exec512 over a caller-owned register file. Programs are
// immutable after construction and safe for concurrent execution over
// distinct register files.
type Program struct {
	ops  []progOp
	regs int // register-file size in words (width 1)
}

// NewProgram returns an empty program whose register file holds at
// least numRegs registers. Emit grows the file as needed.
func NewProgram(numRegs int) *Program {
	if numRegs < 0 {
		numRegs = 0
	}
	return &Program{regs: numRegs}
}

// NumRegs returns the register-file size in registers. Exec needs a
// slice of NumRegs() words; Exec512 needs 8× that.
func (p *Program) NumRegs() int { return p.regs }

// Len returns the number of compiled instructions.
func (p *Program) Len() int { return len(p.ops) }

func (p *Program) grow(r int32) {
	if int(r) >= p.regs {
		p.regs = int(r) + 1
	}
}

// Emit appends the instructions computing gate type t over the argument
// registers into dst. n-ary gates decompose into an accumulate-into-dst
// chain, which requires dst to not appear among args (always true when
// compiling an acyclic circuit with fresh destination registers); Emit
// rejects the aliasing rather than miscompute.
func (p *Program) Emit(t GateType, dst int32, args []int32) error {
	if dst < 0 {
		return fmt.Errorf("netlist: Emit %s: negative dst register %d", t, dst)
	}
	for _, a := range args {
		if a < 0 {
			return fmt.Errorf("netlist: Emit %s: negative arg register %d", t, a)
		}
		if a == dst {
			return fmt.Errorf("netlist: Emit %s: dst register %d aliases an argument", t, dst)
		}
		p.grow(a)
	}
	p.grow(dst)

	switch t {
	case Const0:
		if len(args) != 0 {
			return fmt.Errorf("netlist: Emit CONST0: got %d args, want 0", len(args))
		}
		p.ops = append(p.ops, progOp{code: opConst0, a: dst, b: dst, dst: dst})
		return nil
	case Const1:
		if len(args) != 0 {
			return fmt.Errorf("netlist: Emit CONST1: got %d args, want 0", len(args))
		}
		p.ops = append(p.ops, progOp{code: opConst1, a: dst, b: dst, dst: dst})
		return nil
	case Buf, Input:
		if len(args) != 1 {
			return fmt.Errorf("netlist: Emit %s: got %d args, want 1", t, len(args))
		}
		p.ops = append(p.ops, progOp{code: opBuf, a: args[0], b: args[0], dst: dst})
		return nil
	case Not:
		if len(args) != 1 {
			return fmt.Errorf("netlist: Emit NOT: got %d args, want 1", len(args))
		}
		p.ops = append(p.ops, progOp{code: opNot, a: args[0], b: args[0], dst: dst})
		return nil
	}

	var base, inv uint8
	switch t {
	case And:
		base, inv = opAnd2, opAnd2
	case Nand:
		base, inv = opAnd2, opNand2
	case Or:
		base, inv = opOr2, opOr2
	case Nor:
		base, inv = opOr2, opNor2
	case Xor:
		base, inv = opXor2, opXor2
	case Xnor:
		base, inv = opXor2, opXnor2
	default:
		return fmt.Errorf("netlist: Emit on invalid gate type %s", t)
	}
	if len(args) < 2 {
		return fmt.Errorf("netlist: Emit %s: got %d args, want ≥ 2", t, len(args))
	}
	if len(args) == 2 {
		// Fused two-input fast path: one op, inversion included.
		p.ops = append(p.ops, progOp{code: inv, a: args[0], b: args[1], dst: dst})
		return nil
	}
	// n-ary: accumulate into dst; the final op carries the inversion.
	p.ops = append(p.ops, progOp{code: base, a: args[0], b: args[1], dst: dst})
	for _, a := range args[2 : len(args)-1] {
		p.ops = append(p.ops, progOp{code: base, a: dst, b: a, dst: dst})
	}
	p.ops = append(p.ops, progOp{code: inv, a: dst, b: args[len(args)-1], dst: dst})
	return nil
}

// Schedule reorders the instruction stream by dependency level, then by
// opcode, without changing what any execution computes. An op's level
// is one more than the highest level among the last writers of its
// operands and of its destination and the last reader of its
// destination: the read-after-write terms order the data flow, and the
// write-after-write and write-after-read terms keep accumulate chains
// and raw Emit streams that reuse registers correct. No two ops of one
// level write the same register or read a register another of them
// writes, so any order within a level is equivalent; a stable counting
// sort by (level, opcode) turns the stream into long runs of one
// opcode, which Exec dispatches once per run. Registers keep their
// numbering.
func (p *Program) Schedule() {
	n := len(p.ops)
	if n < 2 {
		return
	}
	const nCodes = int32(opXnor2) + 1
	last := make([]int32, 2*p.regs)
	lastW, lastR := last[:p.regs], last[p.regs:]
	key := make([]int32, n) // (level-1)·nCodes + opcode
	var top int32
	for i := range p.ops {
		op := &p.ops[i]
		l := 1 + max(lastW[op.a], lastW[op.b], lastW[op.dst], lastR[op.dst])
		key[i] = (l-1)*nCodes + int32(op.code)
		lastR[op.a] = max(lastR[op.a], l)
		lastR[op.b] = max(lastR[op.b], l)
		lastW[op.dst] = l
		top = max(top, l)
	}
	// Counting sort: next[k] becomes bucket k's first slot.
	next := make([]int32, top*nCodes)
	for _, k := range key {
		next[k]++
	}
	var at int32
	for k, c := range next {
		next[k] = at
		at += c
	}
	sorted := make([]progOp, n)
	for i, op := range p.ops {
		sorted[next[key[i]]] = op
		next[key[i]]++
	}
	p.ops = sorted
}

// Exec runs the program over a width-1 register file (64 bit-parallel
// lanes). len(regs) must be at least NumRegs(). Each case of the opcode
// switch runs the whole run of consecutive ops sharing its opcode, so a
// scheduled program pays one dispatch per run rather than one per op.
func (p *Program) Exec(regs []uint64) {
	if p.regs == 0 {
		return
	}
	regs = regs[:p.regs]
	ops := p.ops
	for i := 0; i < len(ops); {
		switch ops[i].code {
		case opConst0:
			for ; i < len(ops) && ops[i].code == opConst0; i++ {
				op := &ops[i]
				regs[op.dst] = 0
			}
		case opConst1:
			for ; i < len(ops) && ops[i].code == opConst1; i++ {
				op := &ops[i]
				regs[op.dst] = ^uint64(0)
			}
		case opBuf:
			for ; i < len(ops) && ops[i].code == opBuf; i++ {
				op := &ops[i]
				regs[op.dst] = regs[op.a]
			}
		case opNot:
			for ; i < len(ops) && ops[i].code == opNot; i++ {
				op := &ops[i]
				regs[op.dst] = ^regs[op.a]
			}
		case opAnd2:
			for ; i < len(ops) && ops[i].code == opAnd2; i++ {
				op := &ops[i]
				regs[op.dst] = regs[op.a] & regs[op.b]
			}
		case opNand2:
			for ; i < len(ops) && ops[i].code == opNand2; i++ {
				op := &ops[i]
				regs[op.dst] = ^(regs[op.a] & regs[op.b])
			}
		case opOr2:
			for ; i < len(ops) && ops[i].code == opOr2; i++ {
				op := &ops[i]
				regs[op.dst] = regs[op.a] | regs[op.b]
			}
		case opNor2:
			for ; i < len(ops) && ops[i].code == opNor2; i++ {
				op := &ops[i]
				regs[op.dst] = ^(regs[op.a] | regs[op.b])
			}
		case opXor2:
			for ; i < len(ops) && ops[i].code == opXor2; i++ {
				op := &ops[i]
				regs[op.dst] = regs[op.a] ^ regs[op.b]
			}
		case opXnor2:
			for ; i < len(ops) && ops[i].code == opXnor2; i++ {
				op := &ops[i]
				regs[op.dst] = ^(regs[op.a] ^ regs[op.b])
			}
		default:
			panic(fmt.Sprintf("netlist: Exec: invalid opcode %d", ops[i].code))
		}
	}
}

// Exec512 runs the program over a stride-8 register file (512 lanes):
// register r occupies regs[8r : 8r+8]. len(regs) must be at least
// 8 × NumRegs().
func (p *Program) Exec512(regs []uint64) {
	if p.regs == 0 {
		return
	}
	regs = regs[:p.regs*8]
	for i := range p.ops {
		op := &p.ops[i]
		a := (*[8]uint64)(regs[int(op.a)*8:])
		b := (*[8]uint64)(regs[int(op.b)*8:])
		d := (*[8]uint64)(regs[int(op.dst)*8:])
		switch op.code {
		case opConst0:
			d[0], d[1], d[2], d[3] = 0, 0, 0, 0
			d[4], d[5], d[6], d[7] = 0, 0, 0, 0
		case opConst1:
			d[0], d[1], d[2], d[3] = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
			d[4], d[5], d[6], d[7] = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
		case opBuf:
			d[0], d[1], d[2], d[3] = a[0], a[1], a[2], a[3]
			d[4], d[5], d[6], d[7] = a[4], a[5], a[6], a[7]
		case opNot:
			d[0], d[1], d[2], d[3] = ^a[0], ^a[1], ^a[2], ^a[3]
			d[4], d[5], d[6], d[7] = ^a[4], ^a[5], ^a[6], ^a[7]
		case opAnd2:
			d[0], d[1], d[2], d[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
			d[4], d[5], d[6], d[7] = a[4]&b[4], a[5]&b[5], a[6]&b[6], a[7]&b[7]
		case opNand2:
			d[0], d[1], d[2], d[3] = ^(a[0] & b[0]), ^(a[1] & b[1]), ^(a[2] & b[2]), ^(a[3] & b[3])
			d[4], d[5], d[6], d[7] = ^(a[4] & b[4]), ^(a[5] & b[5]), ^(a[6] & b[6]), ^(a[7] & b[7])
		case opOr2:
			d[0], d[1], d[2], d[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
			d[4], d[5], d[6], d[7] = a[4]|b[4], a[5]|b[5], a[6]|b[6], a[7]|b[7]
		case opNor2:
			d[0], d[1], d[2], d[3] = ^(a[0] | b[0]), ^(a[1] | b[1]), ^(a[2] | b[2]), ^(a[3] | b[3])
			d[4], d[5], d[6], d[7] = ^(a[4] | b[4]), ^(a[5] | b[5]), ^(a[6] | b[6]), ^(a[7] | b[7])
		case opXor2:
			d[0], d[1], d[2], d[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
			d[4], d[5], d[6], d[7] = a[4]^b[4], a[5]^b[5], a[6]^b[6], a[7]^b[7]
		case opXnor2:
			d[0], d[1], d[2], d[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
			d[4], d[5], d[6], d[7] = ^(a[4] ^ b[4]), ^(a[5] ^ b[5]), ^(a[6] ^ b[6]), ^(a[7] ^ b[7])
		}
	}
}

// CompileCircuit compiles the circuit's gate logic into a scheduled
// Program whose register file is indexed by gate ID (register i holds
// gate i's value). Input-type gates (primary inputs and keys) emit no
// instructions — callers load their registers before executing.
func CompileCircuit(c *Circuit) (*Program, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := NewProgram(c.NumGates())
	nOps := 0
	for i := range c.gates {
		if g := &c.gates[i]; g.Type != Input {
			nOps += max(1, len(g.Fanin)-1)
		}
	}
	p.ops = make([]progOp, 0, nOps)
	var args []int32
	for _, id := range order {
		g := &c.gates[id]
		if g.Type == Input {
			continue
		}
		args = args[:0]
		for _, f := range g.Fanin {
			args = append(args, int32(f))
		}
		if err := p.Emit(g.Type, int32(id), args); err != nil {
			return nil, fmt.Errorf("netlist: compiling gate %q: %w", g.Name, err)
		}
	}
	p.Schedule()
	return p, nil
}
