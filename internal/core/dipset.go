package core

import (
	"fmt"
	"math/bits"
)

// maxDenseBits caps the block width a DIPSet will represent densely. At
// the cap the word array is 2 GiB; beyond it exhaustive enumeration is
// out of reach anyway (the sim extractor walks every pattern), so wider
// requests indicate a logic error rather than a real workload.
const maxDenseBits = 34

// MaxBlockWidth is the widest CAS block this package can attack: the
// dense DIPSet cap. Admission boundaries validate against it (with
// ErrBlockWidth) instead of letting a malformed instance trip internal
// panics deep inside a shared process.
const MaxBlockWidth = maxDenseBits

// DIPSet is a packed bitset over the 2^n block-input patterns of an
// n-input CAS block: bit p is set iff pattern p is a DIP. It replaces
// the former map[uint64]struct{} representation — 2^n bits instead of
// ~50 bytes per entry, so the paper's 8.5M-DIP instances cost 512 MiB
// worst case at n = 32 instead of map overhead proportional to the DIP
// count, membership is one shift+mask, iteration is ascending (and
// therefore deterministic), and merging shard results is a word-wise OR.
//
// The word layout is the same as the extractor's 64-lane batches: word
// b holds patterns b·64 … b·64+63, so a shard worker deposits a run of
// whole disagreement masks with one setWords call.
type DIPSet struct {
	n     int
	words []uint64
}

// NewDIPSet returns an empty DIP set over n-bit block patterns.
func NewDIPSet(n int) (*DIPSet, error) {
	if n < 1 || n > maxDenseBits {
		return nil, fmt.Errorf("%w: DIPSet width %d outside [1, %d]", ErrBlockWidth, n, maxDenseBits)
	}
	nw := 1
	if n > 6 {
		nw = 1 << uint(n-6)
	}
	return &DIPSet{n: n, words: make([]uint64, nw)}, nil
}

// BlockWidth returns n, the pattern width.
func (s *DIPSet) BlockWidth() int { return s.n }

// NumWords returns the number of 64-pattern words backing the set.
func (s *DIPSet) NumWords() int { return len(s.words) }

// Universe returns 2^n, the number of representable patterns.
func (s *DIPSet) Universe() uint64 { return uint64(1) << uint(s.n) }

// Add inserts pattern p. Patterns outside the universe panic: they can
// only come from a bookkeeping bug.
func (s *DIPSet) Add(p uint64) {
	if p >= s.Universe() {
		panic(fmt.Sprintf("core: pattern %d outside the %d-bit DIPSet universe", p, s.n))
	}
	s.words[p>>6] |= 1 << (p & 63)
}

// Contains reports membership of p; out-of-universe patterns are absent.
func (s *DIPSet) Contains(p uint64) bool {
	if p >= s.Universe() {
		return false
	}
	return s.words[p>>6]&(1<<(p&63)) != 0
}

// setWords deposits a word-aligned run of 64-pattern membership masks
// starting at word index b (patterns b·64 onward), landing a whole
// simulation group in one copy. Shard workers own disjoint word ranges,
// so concurrent setWords calls on distinct ranges need no
// synchronization.
func (s *DIPSet) setWords(b uint64, ws []uint64) {
	copy(s.words[b:], ws)
}

// word returns the membership mask of word index b.
func (s *DIPSet) word(b uint64) uint64 { return s.words[b] }

// laneMask returns the valid-lane mask of a single word: all-ones except
// for n < 6, where only the low 2^n lanes exist.
func (s *DIPSet) laneMask() uint64 {
	if s.n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (uint64(1) << uint(s.n))) - 1
}

// Count returns the number of patterns in the set.
func (s *DIPSet) Count() uint64 {
	var c uint64
	for _, w := range s.words {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// CountRange returns the number of set patterns in [lo, hi).
func (s *DIPSet) CountRange(lo, hi uint64) uint64 {
	if u := s.Universe(); hi > u {
		hi = u
	}
	if lo >= hi {
		return 0
	}
	var c uint64
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - (hi-1)&63)
	if loW == hiW {
		return uint64(bits.OnesCount64(s.words[loW] & loMask & hiMask))
	}
	c += uint64(bits.OnesCount64(s.words[loW] & loMask))
	for w := loW + 1; w < hiW; w++ {
		c += uint64(bits.OnesCount64(s.words[w]))
	}
	c += uint64(bits.OnesCount64(s.words[hiW] & hiMask))
	return c
}

// ForEach visits every set pattern in ascending order; returning false
// from f stops the walk.
func (s *DIPSet) ForEach(f func(p uint64) bool) {
	s.ForEachRange(0, s.Universe(), f)
}

// ForEachRange visits the set patterns in [lo, hi) in ascending order;
// returning false from f stops the walk.
func (s *DIPSet) ForEachRange(lo, hi uint64, f func(p uint64) bool) {
	if u := s.Universe(); hi > u {
		hi = u
	}
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	for b := loW; b <= hiW; b++ {
		w := s.words[b]
		if b == loW {
			w &= ^uint64(0) << (lo & 63)
		}
		if b == hiW {
			w &= ^uint64(0) >> (63 - (hi-1)&63)
		}
		for w != 0 {
			l := bits.TrailingZeros64(w)
			w &^= 1 << uint(l)
			if !f(b<<6 + uint64(l)) {
				return
			}
		}
	}
}

// Or merges o into s (s ∪= o). The widths must match.
func (s *DIPSet) Or(o *DIPSet) error {
	if s.n != o.n {
		return fmt.Errorf("core: DIPSet width mismatch %d vs %d", s.n, o.n)
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
	return nil
}

// Equal reports whether the two sets hold exactly the same patterns.
func (s *DIPSet) Equal(o *DIPSet) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// CloneWords returns a copy of the packed membership words (word b =
// patterns b·64 … b·64+63) — the serialization a checkpoint snapshot
// stores. The copy decouples the snapshot from the live set, which the
// attack keeps mutating after the writer goroutine takes over.
func (s *DIPSet) CloneWords() []uint64 {
	return append([]uint64(nil), s.words...)
}

// NewDIPSetFromWords reconstructs a set from snapshot words. The word
// count must match the width exactly (the same layout CloneWords
// produced); anything else is a corrupt or mismatched snapshot.
func NewDIPSetFromWords(n int, words []uint64) (*DIPSet, error) {
	s, err := NewDIPSet(n)
	if err != nil {
		return nil, err
	}
	if len(words) != len(s.words) {
		return nil, fmt.Errorf("%w: %d snapshot words for width %d, want %d", ErrBlockWidth, len(words), n, len(s.words))
	}
	copy(s.words, words)
	return s, nil
}

// Elements materializes the set as an ascending slice — convenience for
// tests and small sets; the attack itself iterates in place.
func (s *DIPSet) Elements() []uint64 {
	out := make([]uint64, 0, s.Count())
	s.ForEach(func(p uint64) bool {
		out = append(out, p)
		return true
	})
	return out
}
