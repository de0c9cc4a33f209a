package netlist

import "testing"

func TestTopoOrderRespectsEdges(t *testing.T) {
	c := New("t")
	a := c.MustAddInput("a")
	b := c.MustAddInput("b")
	g1 := c.MustAddGate(And, "g1", a, b)
	g2 := c.MustAddGate(Or, "g2", g1, b)
	g3 := c.MustAddGate(Xor, "g3", g2, g1)
	c.MustMarkOutput(g3)

	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[ID]int)
	for i, id := range order {
		pos[id] = i
	}
	for id := 0; id < c.NumGates(); id++ {
		for _, f := range c.Gate(ID(id)).Fanin {
			if pos[f] >= pos[ID(id)] {
				t.Errorf("fanin %d of gate %d not before it", f, id)
			}
		}
	}
}

func TestTopoOrderCached(t *testing.T) {
	c := New("t")
	a := c.MustAddInput("a")
	o1, _ := c.TopoOrder()
	o2, _ := c.TopoOrder()
	if &o1[0] != &o2[0] {
		t.Error("topo order not cached")
	}
	c.MustAddGate(Not, "n", a)
	o3, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(o3) != 2 {
		t.Error("cache not invalidated by AddGate")
	}
}

func TestCycleDetection(t *testing.T) {
	// Build a cycle by mutating fanin directly (the builder API cannot
	// create one).
	c := New("t")
	a := c.MustAddInput("a")
	g1 := c.MustAddGate(Buf, "g1", a)
	g2 := c.MustAddGate(Buf, "g2", g1)
	c.Gate(g1).Fanin[0] = g2
	c.topoValid = false
	if _, err := c.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := c.Validate(); err == nil {
		t.Error("Validate missed the cycle")
	}
}

func TestLevelsAndDepth(t *testing.T) {
	c := New("t")
	a := c.MustAddInput("a")
	b := c.MustAddInput("b")
	g1 := c.MustAddGate(And, "g1", a, b)
	g2 := c.MustAddGate(Not, "g2", g1)
	g3 := c.MustAddGate(Or, "g3", g2, a)
	c.MustMarkOutput(g3)

	levels, err := c.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := map[ID]int{a: 0, b: 0, g1: 1, g2: 2, g3: 3}
	for id, lv := range want {
		if levels[id] != lv {
			t.Errorf("level(%d) = %d, want %d", id, levels[id], lv)
		}
	}
	d, err := c.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
}

func TestTransitiveFanin(t *testing.T) {
	c := New("t")
	a := c.MustAddInput("a")
	b := c.MustAddInput("b")
	cc := c.MustAddInput("c")
	g1 := c.MustAddGate(And, "g1", a, b)
	g2 := c.MustAddGate(Or, "g2", cc, cc)
	c.MustMarkOutput(g1)
	c.MustMarkOutput(g2)

	mask := c.TransitiveFanin(g1)
	if !mask[a] || !mask[b] || !mask[g1] {
		t.Error("cone of g1 incomplete")
	}
	if mask[cc] || mask[g2] {
		t.Error("cone of g1 includes unrelated logic")
	}
}

func TestTransitiveFanout(t *testing.T) {
	c := New("t")
	a := c.MustAddInput("a")
	b := c.MustAddInput("b")
	g1 := c.MustAddGate(And, "g1", a, b)
	g2 := c.MustAddGate(Not, "g2", g1)
	g3 := c.MustAddGate(Buf, "g3", b)
	c.MustMarkOutput(g2)
	c.MustMarkOutput(g3)

	mask := c.TransitiveFanout(a)
	if !mask[a] || !mask[g1] || !mask[g2] {
		t.Error("fanout of a incomplete")
	}
	if mask[b] || mask[g3] {
		t.Error("fanout of a includes unrelated logic")
	}
}

// topoOrderListRef is Kahn's algorithm over per-gate fanout lists, the
// form TopoOrder took before its fanout went flat. It pins the order
// TopoOrder returns (bench.Write, bench.Hash and Tseitin numbering
// follow it).
func topoOrderListRef(c *Circuit) []ID {
	n := c.NumGates()
	indeg := make([]int, n)
	fanout := make([][]ID, n)
	for id := 0; id < n; id++ {
		for _, f := range c.Gate(ID(id)).Fanin {
			indeg[id]++
			fanout[f] = append(fanout[f], ID(id))
		}
	}
	var order, queue []ID
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, ID(id))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, out := range fanout[id] {
			if indeg[out]--; indeg[out] == 0 {
				queue = append(queue, out)
			}
		}
	}
	return order
}

func TestTopoOrderMatchesListReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := randomCircuit(seed, 2+int(seed%7), 5+int(seed)*17)
		got, err := c.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		want := topoOrderListRef(c)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d gates ordered, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: position %d is gate %d, reference %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestTransitiveFanoutIsFaninDual checks the flat fanout walk against the
// fanin walk: y is in x's fanout cone exactly when x is in y's fanin cone.
func TestTransitiveFanoutIsFaninDual(t *testing.T) {
	c := randomCircuit(5, 6, 80)
	n := c.NumGates()
	fanin := make([][]bool, n)
	for y := 0; y < n; y++ {
		fanin[y] = c.TransitiveFanin(ID(y))
	}
	for x := 0; x < n; x++ {
		fo := c.TransitiveFanout(ID(x))
		for y := 0; y < n; y++ {
			if fo[y] != fanin[y][x] {
				t.Fatalf("gate %d in fanout of %d: %v, but fanin says %v", y, x, fo[y], fanin[y][x])
			}
		}
	}
}
