package bench

import (
	"strings"
	"testing"
)

// FuzzBenchRead throws arbitrary text at the bench parser. The parser
// must never panic; it must accept exactly what the plain fixed-point
// reference reader accepts, with identical gate names per ID and
// identical Hash; and any netlist it does accept must satisfy the
// round-trip property: Write serializes it to text that Read accepts
// again with identical port and gate counts and the same Hash.
func FuzzBenchRead(f *testing.F) {
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	f.Add("# comment\nINPUT(G1)\nINPUT(G2)\nOUTPUT(G3)\nG3 = NAND(G1, G2)\n")
	f.Add("INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n")
	f.Add("input(a)\noutput(y)\ny = and(a, a)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n")
	f.Add("OUTPUT(y)\ny = NOT(y)\n")
	f.Add("INPUT(a)\n\n\nOUTPUT(a)\n")
	f.Add("G3 = DFF(G1)\n")
	f.Add(strings.Repeat("INPUT(x)\n", 40))
	f.Add("INPUT(a)\nOUTPUT(y)\ny = AND(Input_buf, output1)\noutput1 = NOT(a)\nInput_buf = BUFF(output1)\n")
	f.Add("INPUT (a)\nOutput\t(y)\ninputs = NOT(a)\ny = OR(inputs, a)\n")
	f.Add("INPUT(a)\nOUTPUT(z)\nz = AND(b, a)\nc = NOT(a)\nb = OR(d, c)\nd = BUF(c)\n")

	f.Fuzz(func(t *testing.T, data string) {
		c, err := Read(strings.NewReader(data), ReadOptions{Name: "fuzz", KeyPrefix: DefaultKeyPrefix})
		ref, refErr := readReference(data, DefaultKeyPrefix)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Read error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		if msg := sameCircuit(c, ref); msg != "" {
			t.Fatalf("Read and the reference disagree: %s", msg)
		}
		text, err := WriteString(c)
		if err != nil {
			t.Fatalf("accepted netlist failed to serialize: %v", err)
		}
		c2, err := ReadString("fuzz2", text)
		if err != nil {
			t.Fatalf("serialized form rejected: %v\n%s", err, text)
		}
		if c2.NumInputs() != c.NumInputs() || c2.NumKeys() != c.NumKeys() ||
			c2.NumOutputs() != c.NumOutputs() || c2.NumGates() != c.NumGates() {
			t.Fatalf("round trip changed shape: %d/%d/%d/%d → %d/%d/%d/%d",
				c.NumInputs(), c.NumKeys(), c.NumOutputs(), c.NumGates(),
				c2.NumInputs(), c2.NumKeys(), c2.NumOutputs(), c2.NumGates())
		}
		h1, err := Hash(c)
		if err != nil {
			t.Fatal(err)
		}
		if h2, err := Hash(c2); err != nil || h2 != h1 {
			t.Fatalf("round trip changed the hash: %s → %s (%v)\n%s", h1, h2, err, text)
		}
	})
}
