package bench

import (
	"strings"
	"testing"

	"repro/internal/netlist"
)

const hashSrc = `# a comment
INPUT(a)
INPUT(b)
INPUT(keyinput0)
OUTPUT(y)
t = XOR(a, keyinput0)
y = AND(t, b)
`

// mustHash reads src under name and returns its Hash.
func mustHash(t *testing.T, name, src string) string {
	t.Helper()
	c, err := ReadString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Hash(c)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHashDeterministic(t *testing.T) {
	h1 := mustHash(t, "one", hashSrc)
	if h2 := mustHash(t, "two", hashSrc); h1 != h2 { // different circuit name
		t.Fatalf("hash depends on the circuit name: %s vs %s", h1, h2)
	}
	if len(h1) != 64 || strings.Trim(h1, "0123456789abcdef") != "" {
		t.Fatalf("hash %q is not a hex SHA-256 digest", h1)
	}
}

func TestHashDistinguishesContent(t *testing.T) {
	base := mustHash(t, "c", hashSrc)
	variants := []string{
		strings.Replace(hashSrc, "AND(t, b)", "OR(t, b)", 1), // gate type
		strings.Replace(hashSrc, "XOR(a,", "XOR(b,", 1),      // wiring
		// the key renamed into a primary input: same wiring, other split
		strings.ReplaceAll(hashSrc, "keyinput0", "c"),
		// key port removed entirely
		"INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = XOR(a, b)\ny = AND(t, b)\n",
	}
	for i, src := range variants {
		if mustHash(t, "c", src) == base {
			t.Errorf("variant %d hashes identically to the base circuit", i)
		}
	}
}

// TestHashIgnoresDeclarationOrder: the same gates declared in another
// file order are the same content.
func TestHashIgnoresDeclarationOrder(t *testing.T) {
	shuffled := "OUTPUT(y)\ny = AND(t, b)\nINPUT(a)\nt = XOR(a, keyinput0)\nINPUT(b)\nINPUT(keyinput0)\n"
	if a, b := mustHash(t, "c", hashSrc), mustHash(t, "c", shuffled); a != b {
		t.Fatalf("declaration order changed the hash: %s vs %s", a, b)
	}
}

func TestHashRoundTripStable(t *testing.T) {
	c, err := ReadString("c", hashSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Write → Read → Hash must equal the direct Hash: the service
	// receives netlists as serialized text, so the hash must be stable
	// across a round trip.
	text, err := WriteString(c)
	if err != nil {
		t.Fatal(err)
	}
	if h1, h2 := mustHash(t, "c", hashSrc), mustHash(t, "c", text); h1 != h2 {
		t.Fatalf("round trip changed the hash: %s vs %s", h1, h2)
	}
}

// TestWriteGolden pins Write's bytes for a circuit with key inputs, an
// n-ary gate and both constants: casgen outputs and the benchmark's
// instance texts are this format, so it must not drift.
func TestWriteGolden(t *testing.T) {
	c := netlist.New("golden")
	a := c.MustAddInput("a")
	b := c.MustAddInput("b")
	d := c.MustAddInput("d")
	k0 := c.MustAddKey("keyinput0")
	k1 := c.MustAddKey("keyinput1")
	zero := c.MustAddGate(netlist.Const0, "zero")
	one := c.MustAddGate(netlist.Const1, "one")
	t0 := c.MustAddGate(netlist.Xor, "t0", a, k0)
	t1 := c.MustAddGate(netlist.Nand, "t1", t0, b, d, k1)
	t2 := c.MustAddGate(netlist.Or, "t2", zero, t1)
	y := c.MustAddGate(netlist.And, "y", t2, one)
	z := c.MustAddGate(netlist.Not, "z", t1)
	w := c.MustAddGate(netlist.Buf, "w", t0)
	c.MustMarkOutput(y)
	c.MustMarkOutput(z)
	c.MustMarkOutput(w)
	got, err := WriteString(c)
	if err != nil {
		t.Fatal(err)
	}
	const want = `# golden
# 3 inputs, 2 key inputs, 3 outputs
INPUT(a)
INPUT(b)
INPUT(d)
INPUT(keyinput0)
INPUT(keyinput1)
OUTPUT(y)
OUTPUT(z)
OUTPUT(w)
zero = XOR(a, a)
one = XNOR(a, a)
t0 = XOR(a, keyinput0)
t1 = NAND(t0, b, d, keyinput1)
w = BUFF(t0)
t2 = OR(zero, t1)
z = NOT(t1)
y = AND(t2, one)
`
	if got != want {
		t.Fatalf("Write bytes drifted:\n%s\nwant:\n%s", got, want)
	}
}
