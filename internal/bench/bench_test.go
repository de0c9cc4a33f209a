package bench

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/synth"
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

// TestReadErrorPrecedence pins which error Read reports when an input has
// several faults: parse errors in line order, then duplicate inputs, then
// duplicate gates (first in file order), then errors adding a gate (in
// placement order), then undefined signals (first stuck gate by name),
// then cycles, then outputs. Lines received before a read error still
// parse, and a malformed one among them wins.
func TestReadErrorPrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"INPUT(a)\nINPUT(a)\nz = FROB(a)\n",
			"bench: line 3: unknown gate type \"FROB\""},
		{"INPUT(a)\nINPUT(a)\nz = NOT(a)\nz = NOT(a)\n",
			"bench: netlist: duplicate gate name \"a\""},
		{"INPUT(a)\nz = NOT(q)\nz = NOT(a)\n",
			"bench: line 3: duplicate definition of \"z\""},
		{"z = NOT(a)\nINPUT(a)\nINPUT(z)\n",
			"bench: line 1: duplicate definition of \"z\""},
		{"INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\nw = AND(a, ghost)\n",
			"bench: line 3: netlist: gate \"y\": NOT cannot take 2 fanins"},
		{"INPUT(a)\nzz = AND(a, ghost1)\nbb = AND(ghost2, a)\n",
			"bench: line 3: gate \"bb\" references undefined signal \"ghost2\""},
		{"INPUT(a)\np = AND(a, q)\nq = AND(a, p)\nr = NOT(ghost)\n",
			"bench: line 4: gate \"r\" references undefined signal \"ghost\""},
		{"INPUT(a)\np = AND(a, q)\nq = AND(a, p)\nOUTPUT(p)\n",
			"bench: circuit contains a combinational cycle"},
		{"INPUT(a)\nOUTPUT(ghost)\nOUTPUT(a)\nOUTPUT(a)\n",
			"bench: OUTPUT(ghost) references undefined signal"},
		{"INPUT(a)\nOUTPUT(a)\nOUTPUT(a)\n",
			"bench: netlist: gate \"a\" already marked as output"},
		{"INPUT(a)\nb = NOT(c, a)\nc = NOT(a, a)\n",
			"bench: line 3: netlist: gate \"c\": NOT cannot take 2 fanins"},
		{"INPUT(a)\n = NOT(a)\n",
			"bench: line 2: netlist: empty gate name"},
		{"INPUT(a\n",
			"bench: line 1: malformed INPUT declaration \"INPUT(a\""},
		{"INPUT(a)\nx = AND(a, x)\ny = AND(q, a)\n",
			"bench: line 3: gate \"y\" references undefined signal \"q\""},
	}
	for _, tc := range cases {
		_, err := ReadString("p", tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: got %v, want %s", tc.src, err, tc.want)
		}
	}
	boom := errors.New("boom")
	for src, want := range map[string]string{
		"INPUT(a)\nOUTPUT(b": `bench: line 2: malformed OUTPUT declaration "OUTPUT(b"`,
		"INPUT(a)\n":         "bench: read: boom",
	} {
		_, err := Read(io.MultiReader(strings.NewReader(src), iotest.ErrReader(boom)), ReadOptions{})
		if err == nil || err.Error() != want {
			t.Errorf("%q then a read error: got %v, want %s", src, err, want)
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

// keywordNames has gates whose names start with a declaration keyword:
// only the keyword followed by "(" declares a port, so they are gates.
const keywordNames = `
INPUT(a)
INPUT(b)
OUTPUT(Input_buf)
output1 = NOT(a)
Input_buf = BUFF(output1)
inputs = AND(b, output1)
OUTPUT (inputs)
`

func TestRoundTrip(t *testing.T) {
	for name, src := range map[string]string{"c17": c17, "keyword names": keywordNames} {
		orig, err := ReadString(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text, err := WriteString(orig)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadString(name+"rt", text)
		if err != nil {
			t.Fatalf("%s: re-parse failed: %v\n%s", name, err, text)
		}
		if back.NumInputs() != orig.NumInputs() || back.NumOutputs() != orig.NumOutputs() {
			t.Fatalf("%s: round-trip changed I/O counts", name)
		}
		// Exhaustive functional equivalence over the input space.
		n := orig.NumInputs()
		s1 := netlist.MustNewSimulator(orig)
		s2 := netlist.MustNewSimulator(back)
		for x := uint64(0); x < 1<<n; x++ {
			in := netlist.PatternFromUint(x, n)
			o1, _ := s1.Run(in, nil)
			o2, _ := s2.Run(in, nil)
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("%s: pattern %d output %d differs", name, x, i)
				}
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

// TestReadMatchesFixedPointReference parses random netlists whose lines
// are shuffled (so dependency order and name order disagree and Read
// needs several passes) with Read and with the reference reader, and
// requires the same gate IDs and identical Hash.
func TestReadMatchesFixedPointReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		text, err := WriteString(randomCircuit(seed, 4+rng.Intn(8), 20+rng.Intn(120)))
		if err != nil {
			t.Fatal(err)
		}
		switch seed % 3 {
		case 1:
			// Gate names longer than eight bytes with a shared prefix, so
			// Read's name sort must break ties on whole names.
			text = strings.ReplaceAll(text, "g", "long_shared_prefix_g")
		case 2:
			// Names of six to eight bytes differing in their last ones.
			text = strings.ReplaceAll(text, "g", "gate_")
		}
		lines := strings.Split(strings.TrimSpace(text), "\n")
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		shuffled := strings.Join(lines, "\n") + "\n"

		got, err := ReadString("ref", shuffled)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := readReference(shuffled, DefaultKeyPrefix)
		if err != nil {
			t.Fatalf("seed %d: reference reader: %v", seed, err)
		}
		if msg := sameCircuit(got, want); msg != "" {
			t.Fatalf("seed %d: Read and the fixed-point reference disagree: %s", seed, msg)
		}
	}
}

// BenchmarkRead parses a CAS-locked c5315-profile netlist (|K| = 32,
// chain 14A-O, about 2.7k lines): the size of one Table-I attack input.
func BenchmarkRead(b *testing.B) {
	p, err := synth.ProfileByName("c5315")
	if err != nil {
		b.Fatal(err)
	}
	host, err := synth.Generate(synth.FromProfile(p, 1))
	if err != nil {
		b.Fatal(err)
	}
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: lock.MustParseChain("14A-O"), Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	text, err := WriteString(locked.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if readSink, err = ReadString("locked", text); err != nil {
			b.Fatal(err)
		}
	}
}

var readSink *netlist.Circuit
