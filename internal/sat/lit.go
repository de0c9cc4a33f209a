// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-watched-literal propagation, 1UIP conflict analysis
// with clause minimization, VSIDS decision ordering, phase saving, Luby
// restarts, learned-clause database reduction, and incremental solving
// under assumptions. A reference DPLL solver is provided for differential
// testing.
//
// The public API speaks cnf.Lit (DIMACS-style signed literals); the
// internal representation packs literals as 2*var+sign.
package sat

import "repro/internal/cnf"

// lit is the internal literal encoding: variable index v (0-based)
// becomes 2v (positive) or 2v+1 (negative).
type lit uint32

const litUndef lit = ^lit(0)

func mkLit(v int, neg bool) lit {
	l := lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

func (l lit) vari() int    { return int(l >> 1) }
func (l lit) neg() lit     { return l ^ 1 }
func (l lit) signed() bool { return l&1 == 1 } // true when negated

// fromCNF converts a DIMACS literal to internal form.
func fromCNF(l cnf.Lit) lit { return mkLit(l.Var()-1, !l.Sign()) }

// toCNF converts an internal literal to DIMACS form.
func toCNF(l lit) cnf.Lit {
	v := cnf.Lit(l.vari() + 1)
	if l.signed() {
		return -v
	}
	return v
}

// lbool is a three-valued boolean.
type lbool uint8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}
