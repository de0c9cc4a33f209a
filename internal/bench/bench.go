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
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"

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

// maxLine is the length, in bytes, from which a line is rejected with
// bufio.ErrTooLong.
const maxLine = 16 << 20

// Read parses a bench-format netlist. It takes in the whole input first
// and then parses it as ReadString does.
func Read(r io.Reader, opts ReadOptions) (*netlist.Circuit, error) {
	text, rerr := io.ReadAll(r)
	// Lines that arrived before a read error are still parsed, and a
	// malformed one among them is the error reported.
	p, err := scan(string(text))
	if err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, fmt.Errorf("bench: read: %w", rerr)
	}
	return p.build(opts)
}

// ReadString parses a bench-format netlist from a string with the default
// key prefix.
func ReadString(name, s string) (*netlist.Circuit, error) {
	p, err := scan(s)
	if err != nil {
		return nil, err
	}
	return p.build(ReadOptions{Name: name, KeyPrefix: DefaultKeyPrefix})
}

// parsed is a bench text taken apart statement by statement. Every name
// is a substring of the text (so a circuit keeps its text alive); the
// fanin names of all gate statements share one arena.
type parsed struct {
	inputs  []string
	outputs []string
	gates   []protoGate
	fanins  []string
}

// protoGate is a gate statement awaiting its fanins.
type protoGate struct {
	name   string
	lo, hi int32 // fanin names: fanins[lo:hi]
	lineNo int32
	typ    netlist.GateType
}

// scan splits text into lines and parses each one, sizing its tables
// from the line and comma counts up front.
func scan(text string) (*parsed, error) {
	lines := strings.Count(text, "\n") + 1
	p := &parsed{
		gates:  make([]protoGate, 0, lines),
		fanins: make([]string, 0, lines+strings.Count(text, ",")),
	}
	for lineNo := 1; text != ""; lineNo++ {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if len(line) >= maxLine {
			return nil, fmt.Errorf("bench: read: %w", bufio.ErrTooLong)
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case isDecl(line, "INPUT"):
			name, err := parseDecl(line, "INPUT", lineNo)
			if err != nil {
				return nil, err
			}
			p.inputs = append(p.inputs, name)
		case isDecl(line, "OUTPUT"):
			name, err := parseDecl(line, "OUTPUT", lineNo)
			if err != nil {
				return nil, err
			}
			p.outputs = append(p.outputs, name)
		default:
			if err := p.parseAssign(line, lineNo); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// isDecl reports whether line declares a port: the keyword in any case,
// then optional spaces and "(". A gate statement whose name merely
// starts with the keyword ("output1 = NOT(a)") is not a declaration.
func isDecl(line, kw string) bool {
	return len(line) > len(kw) && strings.EqualFold(line[:len(kw)], kw) &&
		strings.HasPrefix(strings.TrimLeftFunc(line[len(kw):], unicode.IsSpace), "(")
}

// parseDecl extracts the name of a declaration isDecl accepted.
func parseDecl(line, kw string, lineNo int) (string, error) {
	rest := strings.TrimSpace(line[len(kw):])
	if !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("bench: line %d: malformed %s declaration %q", lineNo, kw, line)
	}
	name := strings.TrimSpace(rest[1 : len(rest)-1])
	if name == "" {
		return "", fmt.Errorf("bench: line %d: empty %s name", lineNo, kw)
	}
	return name, nil
}

var typeByMnemonic = map[string]netlist.GateType{
	"AND": netlist.And, "NAND": netlist.Nand,
	"OR": netlist.Or, "NOR": netlist.Nor,
	"XOR": netlist.Xor, "XNOR": netlist.Xnor,
	"NOT": netlist.Not, "INV": netlist.Not,
	"BUF": netlist.Buf, "BUFF": netlist.Buf,
}

// parseAssign parses a gate statement "name = TYPE(f1, f2, ...)",
// appending its fanin names to the arena.
func (p *parsed) parseAssign(line string, lineNo int) error {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("bench: line %d: unrecognized statement %q", lineNo, line)
	}
	name := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return fmt.Errorf("bench: line %d: malformed gate expression %q", lineNo, rhs)
	}
	mnemonic := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	typ, ok := typeByMnemonic[mnemonic]
	if !ok {
		if mnemonic == "DFF" {
			return fmt.Errorf("bench: line %d: sequential element DFF unsupported (combinational circuits only)", lineNo)
		}
		return fmt.Errorf("bench: line %d: unknown gate type %q", lineNo, mnemonic)
	}
	lo := int32(len(p.fanins))
	for args, more := rhs[open+1:len(rhs)-1], true; more; {
		var f string
		f, args, more = strings.Cut(args, ",")
		if f = strings.TrimSpace(f); f == "" {
			return fmt.Errorf("bench: line %d: empty fanin in %q", lineNo, line)
		}
		p.fanins = append(p.fanins, f)
	}
	p.gates = append(p.gates, protoGate{name, lo, int32(len(p.fanins)), int32(lineNo), typ})
	return nil
}

// build assembles the circuit: inputs first, in declaration order, then
// the gates in dependency order, then the outputs.
func (p *parsed) build(opts ReadOptions) (*netlist.Circuit, error) {
	c := netlist.NewSized(opts.Name, len(p.inputs)+len(p.gates))
	for _, name := range p.inputs {
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
	nIn := c.NumGates()
	refs, err := p.resolve(c)
	if err != nil {
		return nil, err
	}
	// Gates may be declared in any order in a bench file; add them in
	// dependency order. Each pass walks the pending statements in name
	// order (which keeps gate IDs stable across runs), adds every one
	// whose fanins exist by then, and keeps the rest, still in name
	// order, for the next pass.
	// placed[r] is the ID of reference r once it is in the circuit.
	placed := make([]netlist.ID, nIn+len(p.gates))
	for r := range placed {
		placed[r] = netlist.InvalidID
		if r < nIn {
			placed[r] = netlist.ID(r)
		}
	}
	var fanin []netlist.ID
	for pending := p.sortByName(); len(pending) > 0; {
		kept := pending[:0]
		for _, i := range pending {
			g := &p.gates[i]
			fanin = fanin[:0]
			for _, r := range refs[g.lo:g.hi] {
				if r < 0 || placed[r] == netlist.InvalidID {
					break
				}
				fanin = append(fanin, placed[r])
			}
			if len(fanin) < int(g.hi-g.lo) {
				kept = append(kept, i)
				continue
			}
			id, err := c.AddGate(g.typ, g.name, fanin...)
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %w", g.lineNo, err)
			}
			placed[nIn+int(i)] = id
		}
		if len(kept) == len(pending) {
			// No progress: report the first reference to an undefined
			// signal, else the cycle.
			for _, i := range kept {
				g := &p.gates[i]
				for k := g.lo; k < g.hi; k++ {
					if refs[k] < 0 {
						return nil, fmt.Errorf("bench: line %d: gate %q references undefined signal %q", g.lineNo, g.name, p.fanins[k])
					}
				}
			}
			return nil, fmt.Errorf("bench: circuit contains a combinational cycle")
		}
		pending = kept
	}

	for _, name := range p.outputs {
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

// resolve looks every fanin name up once, against c's inputs (IDs 0 to
// nIn-1) and the gate statements: the reference of input ID k is k, of
// gate statement i is nIn+i, of an undefined name -1. The first
// statement, in file order, that reuses a name is reported as a
// duplicate.
func (p *parsed) resolve(c *netlist.Circuit) ([]int32, error) {
	nIn := c.NumGates()
	refOf := make(map[string]int32, nIn+len(p.gates))
	for id := 0; id < nIn; id++ {
		refOf[c.Gate(netlist.ID(id)).Name] = int32(id)
	}
	for i, g := range p.gates {
		// The map only grows if the name is new.
		if refOf[g.name] = int32(nIn + i); len(refOf) == nIn+i {
			return nil, fmt.Errorf("bench: line %d: duplicate definition of %q", g.lineNo, g.name)
		}
	}
	refs := make([]int32, len(p.fanins))
	for k, f := range p.fanins {
		if r, ok := refOf[f]; ok {
			refs[k] = r
		} else {
			refs[k] = -1
		}
	}
	return refs, nil
}

// sortByName returns the gate statements' indices in name order. Each
// name's first eight bytes, big-endian and zero-padded, form a key that
// orders names whose keys differ; the statements are radix-sorted by key
// (a byte every key shares costs no pass), and each run of equal keys is
// then ordered by whole name.
func (p *parsed) sortByName() []int32 {
	n := len(p.gates)
	keys, idx := make([]uint64, n), make([]int32, n)
	for i, g := range p.gates {
		var key uint64
		for j := 0; j < 8; j++ {
			key <<= 8
			if j < len(g.name) {
				key |= uint64(g.name[j])
			}
		}
		keys[i], idx[i] = key, int32(i)
	}
	// Least significant byte first, one stable counting-sort pass each.
	keys2, idx2 := make([]uint64, n), make([]int32, n)
	for shift := 0; shift < 64 && n > 0; shift += 8 {
		var at [256]int
		for _, k := range keys {
			at[k>>shift&0xff]++
		}
		if at[keys[0]>>shift&0xff] == n {
			continue
		}
		sum := 0
		for b, c := range at {
			at[b], sum = sum, sum+c
		}
		for j, k := range keys {
			d := k >> shift & 0xff
			keys2[at[d]], idx2[at[d]] = k, idx[j]
			at[d]++
		}
		keys, keys2, idx, idx2 = keys2, keys, idx2, idx
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi] == keys[lo] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(idx[lo:hi], func(a, b int32) int { return strings.Compare(p.gates[a].name, p.gates[b].name) })
		}
		lo = hi
	}
	return idx
}

// Write serializes a circuit in bench format: a "# <name>" line, then
// the body writeBody emits. Key inputs are emitted as ordinary INPUT
// declarations (their names carry the key prefix by convention);
// constants are lowered to gates over a synthesized tautology, since the
// format has no constant literal.
func Write(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("# ")
	bw.WriteString(c.Name)
	bw.WriteByte('\n')
	if err := writeBody(bw, c); err != nil {
		return err
	}
	return bw.Flush()
}

// Hash returns the hex SHA-256 digest of the circuit's content form: the
// body Write emits after its name line. The circuit name is
// presentation, not content, so it is left out; signal names are
// content (key-input naming carries the key-port convention). Gates
// follow TopoOrder, which for a circuit Read builds depends on its gate
// statements, not on their order in the file.
func Hash(c *netlist.Circuit) (string, error) {
	h := sha256.New()
	bw := bufio.NewWriter(h)
	if err := writeBody(bw, c); err != nil {
		return "", err
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeBody writes the port-count comment, the INPUT lines (inputs,
// then keys), the OUTPUT lines and the gates in TopoOrder.
func writeBody(bw *bufio.Writer, c *netlist.Circuit) error {
	bw.WriteString("# ")
	bw.WriteString(strconv.Itoa(c.NumInputs()))
	bw.WriteString(" inputs, ")
	bw.WriteString(strconv.Itoa(c.NumKeys()))
	bw.WriteString(" key inputs, ")
	bw.WriteString(strconv.Itoa(c.NumOutputs()))
	bw.WriteString(" outputs\n")
	decl := func(kw string, ids []netlist.ID) {
		for _, id := range ids {
			bw.WriteString(kw)
			bw.WriteByte('(')
			bw.WriteString(c.Gate(id).Name)
			bw.WriteString(")\n")
		}
	}
	decl("INPUT", c.Inputs())
	decl("INPUT", c.Keys())
	decl("OUTPUT", c.Outputs())
	order, err := c.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		g := c.Gate(id)
		op := mnemonicFor(g.Type)
		fanin := g.Fanin
		switch g.Type {
		case netlist.Input:
			continue
		case netlist.Const0, netlist.Const1:
			// Lower constants through an arbitrary input: x XOR x = 0.
			if c.NumInputs()+c.NumKeys() == 0 {
				return fmt.Errorf("bench: cannot serialize constant %q in a circuit with no inputs", g.Name)
			}
			ref := c.Inputs()
			if len(ref) == 0 {
				ref = c.Keys()
			}
			pair := [2]netlist.ID{ref[0], ref[0]}
			op, fanin = "XOR", pair[:]
			if g.Type == netlist.Const1 {
				op = "XNOR"
			}
		}
		bw.WriteString(g.Name)
		bw.WriteString(" = ")
		bw.WriteString(op)
		bw.WriteByte('(')
		for i, f := range fanin {
			if i > 0 {
				bw.WriteString(", ")
			}
			bw.WriteString(c.Gate(f).Name)
		}
		bw.WriteString(")\n")
	}
	return nil
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
