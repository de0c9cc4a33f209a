package bench

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/netlist"
)

const c17 = `
# c17 from ISCAS-85
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)

OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func TestReadC17(t *testing.T) {
	c, err := ReadString("c17", c17)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs() != 5 || c.NumOutputs() != 2 || c.NumKeys() != 0 {
		t.Fatalf("shape: %s", c)
	}
	stats, err := c.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GatesByType[netlist.Nand] != 6 {
		t.Errorf("NAND count = %d, want 6", stats.GatesByType[netlist.Nand])
	}
	// Spot check: all inputs 1 → 10=NAND(1,1)=0, 11=0, 16=NAND(1,0)=1,
	// 19=NAND(0,1)=1, 22=NAND(0,1)=1, 23=NAND(1,1)=0.
	out, err := c.Eval([]bool{true, true, true, true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] || out[1] {
		t.Errorf("c17(11111) = %v,%v, want 1,0", out[0], out[1])
	}
}

func TestReadOutOfOrderDefinitions(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
z = AND(m, a)
m = NOT(a)
`
	c, err := ReadString("ooo", src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Eval([]bool{true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] {
		t.Error("NOT(a) AND a must be 0")
	}
}

func TestReadKeyInputs(t *testing.T) {
	src := `
INPUT(a)
INPUT(keyinput0)
INPUT(keyinput1)
OUTPUT(z)
t = XOR(a, keyinput0)
z = XNOR(t, keyinput1)
`
	c, err := ReadString("locked", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs() != 1 || c.NumKeys() != 2 {
		t.Fatalf("inputs=%d keys=%d", c.NumInputs(), c.NumKeys())
	}
	// With no key prefix everything is a primary input.
	c2, err := Read(strings.NewReader(src), ReadOptions{Name: "flat"})
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumInputs() != 3 || c2.NumKeys() != 0 {
		t.Fatalf("flat: inputs=%d keys=%d", c2.NumInputs(), c2.NumKeys())
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"unknown type":     "INPUT(a)\nz = FROB(a, a)\nOUTPUT(z)\n",
		"dff":              "INPUT(a)\nz = DFF(a)\nOUTPUT(z)\n",
		"undefined signal": "INPUT(a)\nz = AND(a, ghost)\nOUTPUT(z)\n",
		"undefined output": "INPUT(a)\nOUTPUT(ghost)\n",
		"duplicate":        "INPUT(a)\nz = NOT(a)\nz = BUF(a)\nOUTPUT(z)\n",
		"cycle":            "INPUT(a)\np = AND(a, q)\nq = AND(a, p)\nOUTPUT(p)\n",
		"malformed decl":   "INPUT a\n",
		"malformed gate":   "INPUT(a)\nz = AND a, a\nOUTPUT(z)\n",
		"garbage":          "hello world\n",
		"empty fanin":      "INPUT(a)\nz = AND(a, )\nOUTPUT(z)\n",
	}
	for label, src := range cases {
		if _, err := ReadString("bad", src); err == nil {
			t.Errorf("%s: error not reported", label)
		}
	}
}

func TestCommentsAndCase(t *testing.T) {
	src := `
# full line comment
input(a)  # trailing comment
OUTPUT(z)
z = nand(a, a)   # lower-case mnemonic
`
	c, err := ReadString("cmt", src)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.Eval([]bool{true}, nil)
	if out[0] {
		t.Error("NAND(1,1) must be 0")
	}
}

func TestRoundTrip(t *testing.T) {
	orig, err := ReadString("c17", c17)
	if err != nil {
		t.Fatal(err)
	}
	text, err := WriteString(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadString("c17rt", text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if back.NumInputs() != orig.NumInputs() || back.NumOutputs() != orig.NumOutputs() {
		t.Fatal("round-trip changed I/O counts")
	}
	// Exhaustive functional equivalence over the 5-bit input space.
	s1 := netlist.MustNewSimulator(orig)
	s2 := netlist.MustNewSimulator(back)
	for x := uint64(0); x < 32; x++ {
		in := netlist.PatternFromUint(x, 5)
		o1, _ := s1.Run(in, nil)
		o2, _ := s2.Run(in, nil)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("pattern %d output %d differs", x, i)
			}
		}
	}
}

func TestRoundTripWithKeys(t *testing.T) {
	c := netlist.New("locked")
	a := c.MustAddInput("a")
	k := c.MustAddKey("keyinput0")
	g := c.MustAddGate(Xorish(), "g", a, k)
	c.MustMarkOutput(g)
	text, err := WriteString(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadString("rt", text)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumKeys() != 1 || back.NumInputs() != 1 {
		t.Fatalf("keys lost in round trip: %s", back)
	}
}

// Xorish exists to keep the test above independent of gate-type constant
// renames.
func Xorish() netlist.GateType { return netlist.Xor }

func TestWriteConstants(t *testing.T) {
	c := netlist.New("const")
	a := c.MustAddInput("a")
	one := c.MustAddGate(netlist.Const1, "one")
	g := c.MustAddGate(netlist.And, "g", a, one)
	c.MustMarkOutput(g)
	text, err := WriteString(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadString("rt", text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	out, err := back.Eval([]bool{true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] {
		t.Error("a AND 1 lowering broken")
	}
}

func TestRandomCircuitRoundTrip(t *testing.T) {
	// Build random circuits, serialize, re-parse, compare on random
	// patterns — a structural fuzz of the writer/parser pair.
	for seed := int64(0); seed < 4; seed++ {
		c := randomCircuit(seed, 10, 60)
		text, err := WriteString(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Read(strings.NewReader(text), ReadOptions{Name: "rt"})
		if err != nil {
			t.Fatal(err)
		}
		s1 := netlist.MustNewSimulator(c)
		s2 := netlist.MustNewSimulator(back)
		rng := rand.New(rand.NewSource(seed))
		in := make([]uint64, c.NumInputs())
		for i := range in {
			in[i] = rng.Uint64()
		}
		o1, _ := s1.Run64(in, nil)
		o2, _ := s2.Run64(in, nil)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("seed %d: output %d differs after round trip", seed, i)
			}
		}
	}
}

// randomCircuit mirrors the helper in package netlist's tests (kept local
// to avoid exporting test-only API).
func randomCircuit(seed int64, nIn, nGates int) *netlist.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := netlist.New("rand")
	ids := make([]netlist.ID, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		ids = append(ids, c.MustAddInput("in"+itoa(i)))
	}
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf}
	for i := 0; i < nGates; i++ {
		typ := types[rng.Intn(len(types))]
		var fanin []netlist.ID
		if typ == netlist.Not || typ == netlist.Buf {
			fanin = []netlist.ID{ids[rng.Intn(len(ids))]}
		} else {
			k := 2 + rng.Intn(2)
			for j := 0; j < k; j++ {
				fanin = append(fanin, ids[rng.Intn(len(ids))])
			}
		}
		ids = append(ids, c.MustAddGate(typ, "g"+itoa(i), fanin...))
	}
	for i := 0; i < 3 && i < len(ids); i++ {
		c.MustMarkOutput(ids[len(ids)-1-i])
	}
	return c
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// readFixedPoint is the dependency ordering Read used before it sorted
// once: every pass re-collects and re-sorts the pending gate names and
// adds each gate whose fanins exist. It is kept as the reference that
// pins Read's gate IDs.
func readFixedPoint(t *testing.T, text string) *netlist.Circuit {
	t.Helper()
	c := netlist.New("ref")
	pending := make(map[string]assign)
	for i, line := range strings.Split(text, "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case hasPrefixFold(line, "INPUT"):
			name, err := parseDecl(line, "INPUT", i+1)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(name, DefaultKeyPrefix) {
				c.MustAddKey(name)
			} else {
				c.MustAddInput(name)
			}
		case hasPrefixFold(line, "OUTPUT"):
		default:
			g, err := parseAssign(line, i+1)
			if err != nil {
				t.Fatal(err)
			}
			pending[g.name] = g
		}
	}
	for len(pending) > 0 {
		names := make([]string, 0, len(pending))
		for n := range pending {
			names = append(names, n)
		}
		sort.Strings(names)
		progress := false
		for _, n := range names {
			g := pending[n]
			fanin := make([]netlist.ID, 0, len(g.fanin))
			for _, f := range g.fanin {
				if id := c.Lookup(f); id != netlist.InvalidID {
					fanin = append(fanin, id)
				}
			}
			if len(fanin) < len(g.fanin) {
				continue
			}
			c.MustAddGate(g.typ, g.name, fanin...)
			delete(pending, n)
			progress = true
		}
		if !progress {
			t.Fatal("reference reader: no progress")
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); hasPrefixFold(line, "OUTPUT") {
			name, err := parseDecl(line, "OUTPUT", 0)
			if err != nil {
				t.Fatal(err)
			}
			c.MustMarkOutput(c.Lookup(name))
		}
	}
	return c
}

// TestReadMatchesFixedPointReference parses random netlists whose lines
// are shuffled (so dependency order and name order disagree and Read
// needs several passes) with Read and with the reference ordering, and
// requires identical serializations: same gate IDs, same structure.
func TestReadMatchesFixedPointReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		text, err := WriteString(randomCircuit(seed, 4+rng.Intn(8), 20+rng.Intn(120)))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(text), "\n")
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		shuffled := strings.Join(lines, "\n") + "\n"

		got, err := ReadString("ref", shuffled)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := readFixedPoint(t, shuffled)
		gotText, err := WriteString(got)
		if err != nil {
			t.Fatal(err)
		}
		wantText, err := WriteString(want)
		if err != nil {
			t.Fatal(err)
		}
		if gotText != wantText {
			t.Fatalf("seed %d: Read and the fixed-point reference disagree:\n%s\n---\n%s", seed, gotText, wantText)
		}
		if got.NumGates() != want.NumGates() {
			t.Fatalf("seed %d: %d gates, reference %d", seed, got.NumGates(), want.NumGates())
		}
		for id := 0; id < got.NumGates(); id++ {
			if g, w := got.Gate(netlist.ID(id)), want.Gate(netlist.ID(id)); g.Name != w.Name {
				t.Fatalf("seed %d: gate ID %d is %q, reference %q", seed, id, g.Name, w.Name)
			}
		}
	}
}
