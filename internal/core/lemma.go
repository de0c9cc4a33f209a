package core

import (
	"fmt"
	"math/bits"

	"repro/internal/lock"
)

// MaxDIPs computes Lemma 2's closed form: the number of DIPs a CAS-Lock
// chain configuration produces under the aligned Lemma-1 miter
// assignment,
//
//	#DIPs = 1 + Σ_{OR gates} 2^{c_i},
//
// where c_i is the chain-input position entering OR gate i directly
// (gate j takes input j+1, so an OR at gate j contributes 2^{j+1}).
// This equals the number of 1-points of an AND-terminated chain function
// (0-points of an OR-terminated one, by duality).
func MaxDIPs(chain lock.ChainConfig) uint64 {
	total := uint64(1)
	for j, g := range chain {
		if g == lock.ChainOr {
			total += 1 << uint(j+1)
		}
	}
	return total
}

// ChainFromDIPCount inverts Lemma 2: given the aligned DIP-set size and
// the block width, it reconstructs the chain configuration (Algorithm 1,
// line 6: "Position of OR gates ← position of 1s in the binary
// representation of |I_l|"). The terminator kind cannot always be read
// from the count (an OR at the last gate shows up as bit n-1; an AND
// leaves it clear), so the full config follows directly.
func ChainFromDIPCount(count uint64, n int) (lock.ChainConfig, error) {
	if n < 2 || n > 63 {
		return nil, fmt.Errorf("core: block width %d out of range", n)
	}
	if count == 0 || count%2 == 0 {
		return nil, fmt.Errorf("core: DIP count %d is not odd and positive", count)
	}
	if count >= 1<<uint(n) {
		return nil, fmt.Errorf("core: DIP count %d too large for a %d-input block", count, n)
	}
	chain := make(lock.ChainConfig, n-1)
	rest := count - 1
	for rest != 0 {
		p := bits.TrailingZeros64(rest)
		rest &^= 1 << uint(p)
		if p == 0 || p > n-1 {
			return nil, fmt.Errorf("core: DIP count %d has no valid chain interpretation", count)
		}
		chain[p-1] = lock.ChainOr
	}
	return chain, nil
}

// NonControllingPattern returns w_nc: the unique chain-input pattern that
// sets every cascade gate to its non-controlling value so the first
// input's value propagates to the block output (the pattern behind the
// paper's DIP_nc). Bit 0 is 1; bit q (q ≥ 1) is the non-controlling
// value of gate q-1 (1 for AND, 0 for OR).
func NonControllingPattern(chain lock.ChainConfig) uint64 {
	w := uint64(1)
	for j, g := range chain {
		if g == lock.ChainAnd {
			w |= 1 << uint(j+1)
		}
	}
	return w
}

// OnePoints enumerates the 1-points of an AND-terminated chain function:
// the disjoint union of one group per OR gate (controlling 1 at its
// input, non-controlling values above, free bits below) plus w_nc. The
// result has exactly MaxDIPs(chain) elements. Used by tests and by the
// structure validation inside the attack; the count must stay below
// 2^28 (the attack guards with maxOnePoints before calling).
func OnePoints(chain lock.ChainConfig) []uint64 {
	total := MaxDIPs(chain)
	if total > 1<<28 {
		panic("core: OnePoints would materialize more than 2^28 patterns")
	}
	w := newOnePointSet(chain)
	out := make([]uint64, 1, total)
	out[0] = w.wnc
	for _, c := range w.ors {
		base := (w.wnc>>c | 1) << c
		for low := uint64(0); low < 1<<c; low++ {
			out = append(out, base|low)
		}
	}
	return out
}

// onePointSet is W, the set OnePoints enumerates, held in closed form.
// The group of the OR gate whose input sits at chain position c is every
// pattern that agrees with w_nc above c and has the controlling 1 at c;
// W is w_nc plus those groups.
type onePointSet struct {
	wnc uint64
	ors []uint // chain positions of the OR gates' inputs, ascending
}

func newOnePointSet(chain lock.ChainConfig) onePointSet {
	w := onePointSet{wnc: NonControllingPattern(chain)}
	for j, g := range chain {
		if g == lock.ChainOr {
			w.ors = append(w.ors, uint(j+1))
		}
	}
	return w
}

// has reports x ∈ W in O(#ORs) without allocating.
func (w onePointSet) has(x uint64) bool {
	if x == w.wnc {
		return true
	}
	for _, c := range w.ors {
		if x>>c == w.wnc>>c|1 {
			return true
		}
	}
	return false
}
