package bench

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/netlist"
)

// readReference is a second, deliberately plain bench reader, kept as
// the differential reference for Read. It splits lines and fanin lists
// with strings.Split and places gates by the fixed-point passes on names:
// every pass re-collects and re-sorts the pending gate names and adds
// each gate whose fanins the circuit can look up by then. It accepts
// exactly the netlists Read accepts; its error messages are its own.
func readReference(text, keyPrefix string) (*netlist.Circuit, error) {
	type stmt struct {
		typ   netlist.GateType
		fanin []string
	}
	c := netlist.New("ref")
	pending := make(map[string]stmt)
	// Pending names are walked in file order, never in map order, so the
	// fuzzer sees the same coverage for the same input.
	var fileOrder, outputs []string
	for i, line := range strings.Split(text, "\n") {
		if len(line) >= maxLine {
			return nil, fmt.Errorf("line %d: too long", i+1)
		}
		line, _, _ = strings.Cut(line, "#")
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		if kw, name, ok, err := refDecl(line); err != nil {
			return nil, fmt.Errorf("line %d: %v", i+1, err)
		} else if ok {
			var err error
			switch {
			case kw == "OUTPUT":
				outputs = append(outputs, name)
			case keyPrefix != "" && strings.HasPrefix(name, keyPrefix):
				_, err = c.AddKey(name)
			default:
				_, err = c.AddInput(name)
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		name, rhs, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("line %d: no '='", i+1)
		}
		name, rhs = strings.TrimSpace(name), strings.TrimSpace(rhs)
		mnemonic, args, ok := strings.Cut(rhs, "(")
		if !ok || !strings.HasSuffix(args, ")") {
			return nil, fmt.Errorf("line %d: no argument list", i+1)
		}
		typ, ok := typeByMnemonic[strings.ToUpper(strings.TrimSpace(mnemonic))]
		if !ok {
			return nil, fmt.Errorf("line %d: gate type %q", i+1, mnemonic)
		}
		var fanin []string
		for _, f := range strings.Split(strings.TrimSuffix(args, ")"), ",") {
			if f = strings.TrimSpace(f); f == "" {
				return nil, fmt.Errorf("line %d: empty fanin", i+1)
			}
			fanin = append(fanin, f)
		}
		if _, dup := pending[name]; dup {
			return nil, fmt.Errorf("line %d: %q defined twice", i+1, name)
		}
		pending[name] = stmt{typ, fanin}
		fileOrder = append(fileOrder, name)
	}
	for _, name := range fileOrder {
		if c.HasName(name) {
			return nil, fmt.Errorf("gate %q is also an input", name)
		}
	}
	for len(pending) > 0 {
		var names []string
		for _, name := range fileOrder {
			if _, ok := pending[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		progress := false
		for _, name := range names {
			g := pending[name]
			fanin := make([]netlist.ID, 0, len(g.fanin))
			for _, f := range g.fanin {
				if id := c.Lookup(f); id != netlist.InvalidID {
					fanin = append(fanin, id)
				}
			}
			if len(fanin) < len(g.fanin) {
				continue
			}
			if _, err := c.AddGate(g.typ, name, fanin...); err != nil {
				return nil, err
			}
			delete(pending, name)
			progress = true
		}
		if !progress {
			return nil, errors.New("undefined signal or combinational cycle")
		}
	}
	for _, name := range outputs {
		id := c.Lookup(name)
		if id == netlist.InvalidID {
			return nil, fmt.Errorf("output %q undefined", name)
		}
		if err := c.MarkOutput(id); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// refDecl recognizes "INPUT(name)" and "OUTPUT(name)", keyword in any
// case, spaces allowed before the parenthesis. ok is false for a line
// that is not a declaration; err reports a malformed one.
func refDecl(line string) (kw, name string, ok bool, err error) {
	for _, kw := range []string{"INPUT", "OUTPUT"} {
		if len(line) <= len(kw) || !strings.EqualFold(line[:len(kw)], kw) {
			continue
		}
		rest := strings.TrimSpace(line[len(kw):])
		if !strings.HasPrefix(rest, "(") {
			continue // a gate named like the keyword
		}
		if !strings.HasSuffix(rest, ")") {
			return "", "", false, fmt.Errorf("malformed %s", kw)
		}
		if name = strings.TrimSpace(rest[1 : len(rest)-1]); name == "" {
			return "", "", false, fmt.Errorf("empty %s name", kw)
		}
		return kw, name, true, nil
	}
	return "", "", false, nil
}

// sameCircuit compares two readers' results: identical gate names per ID
// and identical Hash. It returns "" when they agree, or what differs.
func sameCircuit(got, want *netlist.Circuit) string {
	if got.NumGates() != want.NumGates() {
		return fmt.Sprintf("%d gates, reference %d", got.NumGates(), want.NumGates())
	}
	for id := 0; id < got.NumGates(); id++ {
		if g, w := got.Gate(netlist.ID(id)).Name, want.Gate(netlist.ID(id)).Name; g != w {
			return fmt.Sprintf("gate ID %d is %q, reference %q", id, g, w)
		}
	}
	gh, gerr := Hash(got)
	wh, werr := Hash(want)
	if gerr != nil || werr != nil {
		return fmt.Sprintf("hash: %v / %v", gerr, werr)
	}
	if gh != wh {
		return fmt.Sprintf("hashes differ: %s / %s", gh, wh)
	}
	return ""
}
