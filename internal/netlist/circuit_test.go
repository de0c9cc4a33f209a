package netlist

import (
	"strings"
	"testing"
)

// buildHalfAdder returns a circuit with outputs sum = a XOR b,
// carry = a AND b.
func buildHalfAdder(t *testing.T) *Circuit {
	t.Helper()
	c := New("halfadder")
	a := c.MustAddInput("a")
	b := c.MustAddInput("b")
	sum := c.MustAddGate(Xor, "sum", a, b)
	carry := c.MustAddGate(And, "carry", a, b)
	c.MustMarkOutput(sum)
	c.MustMarkOutput(carry)
	if err := c.Validate(); err != nil {
		t.Fatalf("half adder invalid: %v", err)
	}
	return c
}

func TestHalfAdderEval(t *testing.T) {
	c := buildHalfAdder(t)
	for x := 0; x < 4; x++ {
		in := PatternFromUint(uint64(x), 2)
		out, err := c.Eval(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantSum := in[0] != in[1]
		wantCarry := in[0] && in[1]
		if out[0] != wantSum || out[1] != wantCarry {
			t.Errorf("x=%d: got (%v,%v), want (%v,%v)", x, out[0], out[1], wantSum, wantCarry)
		}
	}
}

func TestAddGateErrors(t *testing.T) {
	c := New("t")
	a := c.MustAddInput("a")

	if _, err := c.AddGate(And, ""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := c.AddGate(And, "a", a, a); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := c.AddGate(And, "g", a); err == nil {
		t.Error("AND with one fanin accepted")
	}
	if _, err := c.AddGate(Not, "g", a, a); err == nil {
		t.Error("NOT with two fanins accepted")
	}
	if _, err := c.AddGate(And, "g", a, ID(99)); err == nil {
		t.Error("dangling fanin accepted")
	}
	if _, err := c.AddGate(GateType(99), "g", a, a); err == nil {
		t.Error("invalid type accepted")
	}
	// Forward references are impossible by construction: fanin must exist.
	if _, err := c.AddGate(Buf, "g", ID(5)); err == nil {
		t.Error("forward fanin accepted")
	}
}

func TestLookupAndNames(t *testing.T) {
	c := buildHalfAdder(t)
	if c.Lookup("sum") == InvalidID || c.Lookup("nope") != InvalidID {
		t.Error("Lookup misbehaves")
	}
	if !c.HasName("carry") || c.HasName("zzz") {
		t.Error("HasName misbehaves")
	}
	names := strings.Join(c.GateNames(), ",")
	if names != "a,b,carry,sum" {
		t.Errorf("GateNames = %s", names)
	}
}

func TestKeysAreSeparateFromInputs(t *testing.T) {
	c := New("t")
	a := c.MustAddInput("a")
	k := c.MustAddKey("k0")
	g := c.MustAddGate(Xor, "g", a, k)
	c.MustMarkOutput(g)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumInputs() != 1 || c.NumKeys() != 1 {
		t.Fatalf("inputs=%d keys=%d", c.NumInputs(), c.NumKeys())
	}
	out, err := c.Eval([]bool{true}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] {
		t.Error("1 XOR 1 should be 0")
	}
}

func TestValidateCatchesUnregisteredInput(t *testing.T) {
	c := New("t")
	// Bypass AddInput by adding a raw Input-type gate.
	id, err := c.AddGate(Input, "orphan")
	if err != nil {
		t.Fatal(err)
	}
	c.MustMarkOutput(id)
	if err := c.Validate(); err == nil {
		t.Error("orphan input not caught")
	}
}

func TestMarkOutputTwice(t *testing.T) {
	c := New("t")
	a := c.MustAddInput("a")
	if err := c.MarkOutput(a); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput(a); err == nil {
		t.Error("double output marking accepted")
	}
	if err := c.MarkOutput(ID(50)); err == nil {
		t.Error("missing gate marked as output")
	}
}

func TestReplaceOutput(t *testing.T) {
	c := New("t")
	a := c.MustAddInput("a")
	b := c.MustAddInput("b")
	c.MustMarkOutput(a)
	if err := c.ReplaceOutput(0, b); err != nil {
		t.Fatal(err)
	}
	if c.Outputs()[0] != b {
		t.Error("output not replaced")
	}
	if err := c.ReplaceOutput(3, a); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := c.ReplaceOutput(0, ID(99)); err == nil {
		t.Error("missing gate accepted")
	}
}

func TestFanoutCounts(t *testing.T) {
	c := buildHalfAdder(t)
	counts := c.FanoutCounts()
	a := c.Lookup("a")
	if counts[a] != 2 {
		t.Errorf("fanout of a = %d, want 2", counts[a])
	}
	if counts[c.Lookup("sum")] != 0 {
		t.Error("sum should have no fanout")
	}
}

func TestCircuitString(t *testing.T) {
	c := buildHalfAdder(t)
	s := c.String()
	if !strings.Contains(s, "halfadder") || !strings.Contains(s, "2 inputs") {
		t.Errorf("String() = %q", s)
	}
}

func TestConstantGates(t *testing.T) {
	c := New("t")
	a := c.MustAddInput("a")
	one := c.MustAddGate(Const1, "one")
	g := c.MustAddGate(And, "g", a, one)
	c.MustMarkOutput(g)
	out, err := c.Eval([]bool{true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] {
		t.Error("a AND 1 with a=1 should be 1")
	}
}

// TestFaninSlabIsolation checks that fanin lists sharing the circuit's
// slab stay independent: AddGate copies the caller's slice, an in-place
// rewire touches only its own gate, and growing one gate's list
// reallocates rather than spilling into the next gate's.
func TestFaninSlabIsolation(t *testing.T) {
	for _, c := range []*Circuit{New("grow"), NewSized("sized", 4)} {
		a := c.MustAddInput("a")
		b := c.MustAddInput("b")
		fan := []ID{a, b}
		g1 := c.MustAddGate(And, "g1", fan...)
		fan[0] = b
		g2 := c.MustAddGate(Or, "g2", a, b)
		c.Gate(g1).Fanin[1] = a
		c.Gate(g1).Fanin = append(c.Gate(g1).Fanin, b)
		if got := c.Gate(g1).Fanin; len(got) != 3 || got[0] != a || got[1] != a || got[2] != b {
			t.Fatalf("%s: g1 fanin %v", c.Name, got)
		}
		if got := c.Gate(g2).Fanin; len(got) != 2 || got[0] != a || got[1] != b {
			t.Fatalf("%s: neighbour g2 clobbered: %v", c.Name, got)
		}
		// Enough gates to cross several slab stretches.
		prev := g2
		for i := 0; i < 300; i++ {
			prev = c.MustAddGate(Xor, "x"+itoa(i), prev, a, ID(i%2))
		}
		for i := 0; i < 300; i++ {
			g := c.Gate(ID(4 + i))
			if len(g.Fanin) != 3 || g.Fanin[0] != ID(3+i) || g.Fanin[1] != a || g.Fanin[2] != ID(i%2) {
				t.Fatalf("%s: gate x%d fanin %v", c.Name, i, g.Fanin)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
