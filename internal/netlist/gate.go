// Package netlist provides a gate-level intermediate representation for
// combinational circuits, together with construction, validation,
// evaluation (single-pattern and 64-way bit-parallel), and structural
// transformation utilities. It is the substrate every locking scheme and
// attack in this repository is built on.
package netlist

import "fmt"

// ID identifies a gate within a Circuit. IDs are dense indices into the
// circuit's gate table; the zero circuit has no valid IDs.
type ID int

// InvalidID is returned by lookups that fail to resolve a name.
const InvalidID ID = -1

// GateType enumerates the supported combinational gate functions.
type GateType uint8

// Supported gate types. Input gates have no fanin; Const0/Const1 are
// constant drivers; Buf/Not are unary; the remaining types accept two or
// more fanins (evaluated as their n-ary extensions, with XOR/XNOR meaning
// odd/even parity).
const (
	Input GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor

	numGateTypes
)

var gateTypeNames = [numGateTypes]string{
	Input:  "INPUT",
	Const0: "CONST0",
	Const1: "CONST1",
	Buf:    "BUF",
	Not:    "NOT",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
}

// String returns the canonical upper-case mnemonic for the gate type.
func (t GateType) String() string {
	if t < numGateTypes {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Valid reports whether t is one of the defined gate types.
func (t GateType) Valid() bool { return t < numGateTypes }

// MinFanin returns the smallest legal number of fanins for the type.
func (t GateType) MinFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the largest legal number of fanins for the type, with
// -1 meaning unbounded.
func (t GateType) MaxFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	default:
		return -1
	}
}

// Complement returns the gate type computing the negation of t's function
// (AND↔NAND, OR↔NOR, XOR↔XNOR, BUF↔NOT, CONST0↔CONST1). It panics for
// Input, which has no functional complement.
func (t GateType) Complement() GateType {
	switch t {
	case And:
		return Nand
	case Nand:
		return And
	case Or:
		return Nor
	case Nor:
		return Or
	case Xor:
		return Xnor
	case Xnor:
		return Xor
	case Buf:
		return Not
	case Not:
		return Buf
	case Const0:
		return Const1
	case Const1:
		return Const0
	}
	panic("netlist: no complement for " + t.String())
}

// ControllingValue returns the input value that forces the output of an
// AND/NAND/OR/NOR gate regardless of its other inputs, and whether such a
// value exists for the type (XOR-family and unary gates have none).
func (t GateType) ControllingValue() (v bool, ok bool) {
	switch t {
	case And, Nand:
		return false, true
	case Or, Nor:
		return true, true
	}
	return false, false
}

// EvalBool evaluates the gate function over the given fanin values. It is
// the scalar reference semantics; Eval64 in this package is the
// bit-parallel counterpart and must agree with it.
func (t GateType) EvalBool(in []bool) bool {
	switch t {
	case Const0:
		return false
	case Const1:
		return true
	case Buf, Input:
		return in[0]
	case Not:
		return !in[0]
	case And, Nand:
		v := true
		for _, x := range in {
			v = v && x
		}
		if t == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, x := range in {
			v = v || x
		}
		if t == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, x := range in {
			v = v != x
		}
		if t == Xnor {
			return !v
		}
		return v
	}
	panic("netlist: EvalBool on invalid gate type")
}

// Eval64 evaluates the gate function bit-parallel over 64 patterns packed
// into uint64 words (bit i of each word belongs to pattern i).
func (t GateType) Eval64(in []uint64) uint64 {
	switch t {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case Buf, Input:
		return in[0]
	case Not:
		return ^in[0]
	case And, Nand:
		v := ^uint64(0)
		for _, x := range in {
			v &= x
		}
		if t == Nand {
			return ^v
		}
		return v
	case Or, Nor:
		v := uint64(0)
		for _, x := range in {
			v |= x
		}
		if t == Nor {
			return ^v
		}
		return v
	case Xor, Xnor:
		v := uint64(0)
		for _, x := range in {
			v ^= x
		}
		if t == Xnor {
			return ^v
		}
		return v
	}
	panic("netlist: Eval64 on invalid gate type")
}

// Gate is a single node of the circuit DAG.
type Gate struct {
	Type  GateType
	Name  string // unique within the circuit; never empty after AddGate
	Fanin []ID   // driver gates, in order
}
