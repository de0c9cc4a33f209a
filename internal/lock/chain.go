package lock

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
)

// ChainGate is one gate kind in a CAS-Lock cascade.
type ChainGate uint8

// Cascade gate kinds.
const (
	ChainAnd ChainGate = iota
	ChainOr
)

// String returns "A" or "O".
func (g ChainGate) String() string {
	if g == ChainOr {
		return "O"
	}
	return "A"
}

// ChainConfig describes the cascade of a CAS-Lock block: element i is the
// i-th gate from the input side; the last element is the terminating
// gate. A block over n inputs has n-1 chain gates.
type ChainConfig []ChainGate

// NumInputs returns the block input width implied by the chain (one more
// than the gate count).
func (c ChainConfig) NumInputs() int { return len(c) + 1 }

// ORPositions returns the indices of OR gates in the chain.
func (c ChainConfig) ORPositions() []int {
	var out []int
	for i, g := range c {
		if g == ChainOr {
			out = append(out, i)
		}
	}
	return out
}

// LastOR returns the index of the last OR gate, or -1 if the chain is
// all-AND (the Anti-SAT degenerate case).
func (c ChainConfig) LastOR() int {
	for i := len(c) - 1; i >= 0; i-- {
		if c[i] == ChainOr {
			return i
		}
	}
	return -1
}

// Terminator returns the kind of the terminating (last) gate.
func (c ChainConfig) Terminator() ChainGate {
	if len(c) == 0 {
		return ChainAnd
	}
	return c[len(c)-1]
}

// Equal reports element-wise equality.
func (c ChainConfig) Equal(o ChainConfig) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Dual swaps AND and OR at every position (the De Morgan dual): an
// OR-terminated chain's miter-visible DIP count is its dual's Lemma-2
// count, and the dual maps a Case-2 attack's reduced-space chain back
// to the physical one.
func (c ChainConfig) Dual() ChainConfig {
	out := make(ChainConfig, len(c))
	for i, g := range c {
		if g == ChainAnd {
			out[i] = ChainOr
		} else {
			out[i] = ChainAnd
		}
	}
	return out
}

// String renders the chain in the paper's run-length notation, e.g.
// "A-O-2A-O" (repetition groups are expanded).
func (c ChainConfig) String() string {
	if len(c) == 0 {
		return ""
	}
	var parts []string
	i := 0
	for i < len(c) {
		j := i
		for j < len(c) && c[j] == c[i] {
			j++
		}
		run := j - i
		if run == 1 {
			parts = append(parts, c[i].String())
		} else {
			parts = append(parts, fmt.Sprintf("%d%s", run, c[i]))
		}
		i = j
	}
	return strings.Join(parts, "-")
}

// ParseChain parses the paper's chain-configuration notation:
//
//	config := term ('-' term)*
//	term   := [count] ('A' | 'O')          e.g. "A", "14A"
//	        | count '(' config ')'         e.g. "2(4A-O)"
//
// as used in Table I ("A-O-2A-O-2A-O-2A-O-A", "2A-O-2(4A-O)-2(2A-O)-12A").
func ParseChain(s string) (ChainConfig, error) {
	p := &chainParser{src: s}
	cfg, err := p.parseConfig()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("lock: chain %q: trailing input at offset %d", s, p.pos)
	}
	if len(cfg) == 0 {
		return nil, fmt.Errorf("lock: empty chain configuration")
	}
	return cfg, nil
}

// MustParseChain is ParseChain that panics on error.
func MustParseChain(s string) ChainConfig {
	cfg, err := ParseChain(s)
	if err != nil {
		panic(err)
	}
	return cfg
}

type chainParser struct {
	src string
	pos int
}

func (p *chainParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *chainParser) parseConfig() (ChainConfig, error) {
	var out ChainConfig
	for {
		term, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		out = append(out, term...)
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '-' {
			p.pos++
			continue
		}
		return out, nil
	}
}

func (p *chainParser) parseTerm() (ChainConfig, error) {
	p.skipSpace()
	count := 1
	hasCount := false
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		if !hasCount {
			count = 0
			hasCount = true
		}
		count = count*10 + int(p.src[p.pos]-'0')
		p.pos++
		if count > 1<<20 {
			return nil, fmt.Errorf("lock: chain %q: absurd repetition count", p.src)
		}
	}
	if hasCount && count == 0 {
		return nil, fmt.Errorf("lock: chain %q: zero repetition at offset %d", p.src, p.pos)
	}
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("lock: chain %q: unexpected end of input", p.src)
	}
	switch p.src[p.pos] {
	case 'A', 'a':
		p.pos++
		return repeatGate(ChainAnd, count), nil
	case 'O', 'o':
		p.pos++
		return repeatGate(ChainOr, count), nil
	case '(':
		if !hasCount {
			return nil, fmt.Errorf("lock: chain %q: group without repetition count at offset %d", p.src, p.pos)
		}
		p.pos++
		inner, err := p.parseConfig()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, fmt.Errorf("lock: chain %q: missing ')'", p.src)
		}
		p.pos++
		var out ChainConfig
		for i := 0; i < count; i++ {
			out = append(out, inner...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("lock: chain %q: unexpected character %q at offset %d", p.src, p.src[p.pos], p.pos)
	}
}

func repeatGate(g ChainGate, n int) ChainConfig {
	out := make(ChainConfig, n)
	for i := range out {
		out[i] = g
	}
	return out
}

// gateTypeFor maps a chain gate kind to the netlist gate type, optionally
// complemented (for the terminating gate of the complementary block).
func (g ChainGate) gateTypeFor(complemented bool) netlist.GateType {
	switch {
	case g == ChainAnd && !complemented:
		return netlist.And
	case g == ChainAnd && complemented:
		return netlist.Nand
	case g == ChainOr && !complemented:
		return netlist.Or
	default:
		return netlist.Nor
	}
}
