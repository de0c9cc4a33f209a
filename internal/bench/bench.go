// Package bench reads and writes combinational netlists in the ISCAS-85
// "bench" format, the lingua franca of the logic-locking literature:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G17)
//	G10 = NAND(G1, G3)
//
// Following the convention used by published locking tools, primary
// inputs whose name begins with a configurable prefix (default
// "keyinput") are treated as key inputs rather than functional inputs,
// so locked benchmarks round-trip with their key port intact.
package bench

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/netlist"
)

// DefaultKeyPrefix is the input-name prefix identifying key inputs.
const DefaultKeyPrefix = "keyinput"

// ReadOptions configures parsing.
type ReadOptions struct {
	// Name is the circuit name to assign (bench files carry none).
	Name string
	// KeyPrefix marks inputs that are key inputs. Empty means "no key
	// detection": every INPUT is a primary input.
	KeyPrefix string
}

// Read parses a bench-format netlist.
func Read(r io.Reader, opts ReadOptions) (*netlist.Circuit, error) {
	var (
		inputs  []string
		outputs []string
		gates   []protoGate
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT"):
			name, err := parseDecl(line, "INPUT", lineNo)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, name)
		case hasPrefixFold(line, "OUTPUT"):
			name, err := parseDecl(line, "OUTPUT", lineNo)
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, name)
		default:
			g, err := parseAssign(line, lineNo)
			if err != nil {
				return nil, err
			}
			gates = append(gates, protoGate{g.name, g.typ, g.fanin, lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %w", err)
	}

	c := netlist.New(opts.Name)
	for _, name := range inputs {
		isKey := opts.KeyPrefix != "" && strings.HasPrefix(name, opts.KeyPrefix)
		var err error
		if isKey {
			_, err = c.AddKey(name)
		} else {
			_, err = c.AddInput(name)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	// Gates may be declared in any order in a bench file; add them in
	// dependency order. The gates are sorted by name once; each pass
	// walks the pending ones in that order (which keeps gate IDs stable
	// across runs), adds every gate whose fanins exist, and keeps the
	// rest, still sorted, for the next pass.
	pending := make([]*protoGate, len(gates))
	for i := range gates {
		pending[i] = &gates[i]
	}
	slices.SortFunc(pending, func(a, b *protoGate) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		return a.lineNo - b.lineNo
	})
	// A duplicate is a gate named like an input or like an earlier gate;
	// report the first one in file order.
	var dup *protoGate
	for i, g := range pending {
		if (i > 0 && pending[i-1].name == g.name) || c.HasName(g.name) {
			if dup == nil || g.lineNo < dup.lineNo {
				dup = g
			}
		}
	}
	if dup != nil {
		return nil, fmt.Errorf("bench: line %d: duplicate definition of %q", dup.lineNo, dup.name)
	}
	var fanin []netlist.ID
	for len(pending) > 0 {
		kept := pending[:0]
		for _, g := range pending {
			fanin = fanin[:0]
			for _, f := range g.fanin {
				id := c.Lookup(f)
				if id == netlist.InvalidID {
					break
				}
				fanin = append(fanin, id)
			}
			if len(fanin) < len(g.fanin) {
				kept = append(kept, g)
				continue
			}
			if _, err := c.AddGate(g.typ, g.name, fanin...); err != nil {
				return nil, fmt.Errorf("bench: line %d: %w", g.lineNo, err)
			}
		}
		if len(kept) == len(pending) {
			waiting := make(map[string]bool, len(kept))
			for _, g := range kept {
				waiting[g.name] = true
			}
			for _, g := range kept {
				for _, f := range g.fanin {
					if c.Lookup(f) == netlist.InvalidID && !waiting[f] {
						return nil, fmt.Errorf("bench: line %d: gate %q references undefined signal %q", g.lineNo, g.name, f)
					}
				}
			}
			return nil, fmt.Errorf("bench: circuit contains a combinational cycle")
		}
		pending = kept
	}
	for _, name := range outputs {
		id := c.Lookup(name)
		if id == netlist.InvalidID {
			return nil, fmt.Errorf("bench: OUTPUT(%s) references undefined signal", name)
		}
		if err := c.MarkOutput(id); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("bench: parsed circuit invalid: %w", err)
	}
	return c, nil
}

// ReadString parses a bench-format netlist from a string with the default
// key prefix.
func ReadString(name, s string) (*netlist.Circuit, error) {
	return Read(strings.NewReader(s), ReadOptions{Name: name, KeyPrefix: DefaultKeyPrefix})
}

func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

func parseDecl(line, kw string, lineNo int) (string, error) {
	rest := strings.TrimSpace(line[len(kw):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("bench: line %d: malformed %s declaration %q", lineNo, kw, line)
	}
	name := strings.TrimSpace(rest[1 : len(rest)-1])
	if name == "" {
		return "", fmt.Errorf("bench: line %d: empty %s name", lineNo, kw)
	}
	return name, nil
}

// protoGate is a parsed gate statement awaiting its fanins.
type protoGate struct {
	name   string
	typ    netlist.GateType
	fanin  []string
	lineNo int
}

type assign struct {
	name  string
	typ   netlist.GateType
	fanin []string
}

var typeByMnemonic = map[string]netlist.GateType{
	"AND": netlist.And, "NAND": netlist.Nand,
	"OR": netlist.Or, "NOR": netlist.Nor,
	"XOR": netlist.Xor, "XNOR": netlist.Xnor,
	"NOT": netlist.Not, "INV": netlist.Not,
	"BUF": netlist.Buf, "BUFF": netlist.Buf,
}

func parseAssign(line string, lineNo int) (assign, error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return assign{}, fmt.Errorf("bench: line %d: unrecognized statement %q", lineNo, line)
	}
	name := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return assign{}, fmt.Errorf("bench: line %d: malformed gate expression %q", lineNo, rhs)
	}
	mnemonic := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	typ, ok := typeByMnemonic[mnemonic]
	if !ok {
		if mnemonic == "DFF" {
			return assign{}, fmt.Errorf("bench: line %d: sequential element DFF unsupported (combinational circuits only)", lineNo)
		}
		return assign{}, fmt.Errorf("bench: line %d: unknown gate type %q", lineNo, mnemonic)
	}
	var fanin []string
	for _, f := range strings.Split(rhs[open+1:len(rhs)-1], ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return assign{}, fmt.Errorf("bench: line %d: empty fanin in %q", lineNo, line)
		}
		fanin = append(fanin, f)
	}
	return assign{name: name, typ: typ, fanin: fanin}, nil
}

// Write serializes a circuit in bench format. Key inputs are emitted as
// ordinary INPUT declarations (their names carry the key prefix by
// convention); constants are lowered to gates over a synthesized
// tautology, since the format has no constant literal.
func Write(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	fmt.Fprintf(bw, "# %d inputs, %d key inputs, %d outputs\n", c.NumInputs(), c.NumKeys(), c.NumOutputs())
	for _, id := range c.Inputs() {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gate(id).Name)
	}
	for _, id := range c.Keys() {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gate(id).Name)
	}
	for _, id := range c.Outputs() {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gate(id).Name)
	}
	order, err := c.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		g := c.Gate(id)
		switch g.Type {
		case netlist.Input:
			continue
		case netlist.Const0, netlist.Const1:
			// Lower constants through an arbitrary input: x XOR x = 0.
			if c.NumInputs()+c.NumKeys() == 0 {
				return fmt.Errorf("bench: cannot serialize constant %q in a circuit with no inputs", g.Name)
			}
			var ref string
			if c.NumInputs() > 0 {
				ref = c.Gate(c.Inputs()[0]).Name
			} else {
				ref = c.Gate(c.Keys()[0]).Name
			}
			op := "XOR"
			if g.Type == netlist.Const1 {
				op = "XNOR"
			}
			fmt.Fprintf(bw, "%s = %s(%s, %s)\n", g.Name, op, ref, ref)
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.Gate(f).Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, mnemonicFor(g.Type), strings.Join(names, ", "))
	}
	return bw.Flush()
}

func mnemonicFor(t netlist.GateType) string {
	switch t {
	case netlist.Buf:
		return "BUFF"
	case netlist.Not:
		return "NOT"
	default:
		return t.String()
	}
}

// WriteString serializes a circuit to a bench-format string.
func WriteString(c *netlist.Circuit) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		return "", err
	}
	return sb.String(), nil
}
