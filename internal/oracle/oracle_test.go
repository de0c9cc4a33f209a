package oracle

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/netlist"
)

func buildPlain() *netlist.Circuit {
	c := netlist.New("plain")
	a := c.MustAddInput("a")
	b := c.MustAddInput("b")
	g := c.MustAddGate(And, "g", a, b)
	c.MustMarkOutput(g)
	return c
}

// And aliases keep tests short.
const And = netlist.And

func buildLocked() *netlist.Circuit {
	c := netlist.New("locked")
	a := c.MustAddInput("a")
	k := c.MustAddKey("keyinput0")
	g := c.MustAddGate(netlist.Xor, "g", a, k)
	c.MustMarkOutput(g)
	return c
}

func TestNewSimRejectsLocked(t *testing.T) {
	if _, err := NewSim(buildLocked()); err == nil {
		t.Error("locked circuit accepted as oracle")
	}
}

func TestQueryAndCounting(t *testing.T) {
	o := MustNewSim(buildPlain())
	if o.NumInputs() != 2 || o.NumOutputs() != 1 {
		t.Fatal("port widths wrong")
	}
	out, err := o.Query([]bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] {
		t.Error("AND(1,1) = 0")
	}
	if _, err := o.Query64([]uint64{0xF0, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if o.Queries() != 65 || o.Calls() != 2 {
		t.Errorf("queries=%d calls=%d", o.Queries(), o.Calls())
	}
}

// TestRejectedQueriesAreNotCounted checks that a call rejected for a
// wrong input length evaluates no pattern, so it leaves Queries
// ("patterns evaluated") and Calls unchanged.
func TestRejectedQueriesAreNotCounted(t *testing.T) {
	o := MustNewSim(buildPlain())
	if _, err := o.Query64([]uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"Query short":    func() error { _, err := o.Query([]bool{true}); return err },
		"Query long":     func() error { _, err := o.Query([]bool{true, false, true}); return err },
		"Query64 short":  func() error { _, err := o.Query64([]uint64{1}); return err },
		"Query64 long":   func() error { _, err := o.Query64([]uint64{1, 2, 3}); return err },
		"EvalMany first": func() error { _, err := o.EvalMany([][]uint64{{1}, {1, 2}}); return err },
		"EvalMany last":  func() error { _, err := o.EvalMany([][]uint64{{1, 2}, {1, 2}, {1, 2, 3}}); return err },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted a wrong-length input", name)
		}
		if o.Queries() != 64 || o.Calls() != 1 {
			t.Errorf("%s: queries=%d calls=%d after a rejected call, want 64 and 1", name, o.Queries(), o.Calls())
		}
	}
}

func TestQuery64CopiesBuffer(t *testing.T) {
	o := MustNewSim(buildPlain())
	a, _ := o.Query64([]uint64{^uint64(0), ^uint64(0)})
	b, _ := o.Query64([]uint64{0, 0})
	if a[0] != ^uint64(0) || b[0] != 0 {
		t.Error("Query64 results alias an internal buffer")
	}
}

// TestHomeSimulatorSurvivesGC checks that sequential queries keep using
// the simulator built in NewSim across garbage collections, which empty
// a sync.Pool, and never build another one.
func TestHomeSimulatorSurvivesGC(t *testing.T) {
	o := MustNewSim(buildPlain())
	built := 0
	build := o.pool.New
	o.pool.New = func() any { built++; return build() }
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC()
		if _, err := o.Query64([]uint64{^uint64(0), 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := o.EvalMany([][]uint64{{0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if built != 0 {
		t.Fatalf("sequential queries built %d simulators", built)
	}
}

func TestEvalMany(t *testing.T) {
	o := MustNewSim(buildPlain())
	outs, err := o.EvalMany([][]uint64{
		{^uint64(0), ^uint64(0)},
		{0xF0, 0xFF},
		{0, ^uint64(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{^uint64(0), 0xF0, 0}
	for i, w := range want {
		if outs[i][0] != w {
			t.Errorf("batch %d: got %x, want %x", i, outs[i][0], w)
		}
	}
	if o.Queries() != 3*64 || o.Calls() != 3 {
		t.Errorf("queries=%d calls=%d", o.Queries(), o.Calls())
	}
}

// TestConcurrentQueries hammers one Sim from many goroutines mixing all
// three query paths; run under -race this certifies the home simulator
// and the pool keep the single-goroutine simulators private and the
// counters atomic.
func TestConcurrentQueries(t *testing.T) {
	o := MustNewSim(buildPlain())
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				out, err := o.Query([]bool{true, true})
				if err != nil || !out[0] {
					t.Error("Query under concurrency")
					return
				}
				o64, err := o.Query64([]uint64{^uint64(0), 0xFF})
				if err != nil || o64[0] != 0xFF {
					t.Error("Query64 under concurrency")
					return
				}
				outs, err := o.EvalMany([][]uint64{{^uint64(0), ^uint64(0)}, {0, 0}})
				if err != nil || outs[0][0] != ^uint64(0) || outs[1][0] != 0 {
					t.Error("EvalMany under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := o.Queries(); got != workers*50*(1+64+128) {
		t.Errorf("queries = %d, want %d", got, workers*50*(1+64+128))
	}
}

func TestActivate(t *testing.T) {
	locked := buildLocked()
	// key=0 makes g = a XOR 0 = a.
	act, err := Activate(locked, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	if act.NumKeys() != 0 {
		t.Fatal("activated circuit still has keys")
	}
	for _, v := range []bool{false, true} {
		out, err := act.Eval([]bool{v}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != v {
			t.Errorf("activated(key=0)(%v) = %v", v, out[0])
		}
	}
	// key=1 makes g = NOT a.
	act1, err := Activate(locked, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := act1.Eval([]bool{false}, nil)
	if !out[0] {
		t.Error("activated(key=1)(0) should be 1")
	}
}

func TestActivateKeyLengthMismatch(t *testing.T) {
	if _, err := Activate(buildLocked(), nil); err == nil {
		t.Error("short key accepted")
	}
	if _, err := Activate(buildLocked(), []bool{true, false}); err == nil {
		t.Error("long key accepted")
	}
}

func TestActivatePreservesOutputOrder(t *testing.T) {
	c := netlist.New("multi")
	a := c.MustAddInput("a")
	k := c.MustAddKey("keyinput0")
	g1 := c.MustAddGate(netlist.Xor, "g1", a, k)
	g2 := c.MustAddGate(netlist.Xnor, "g2", a, k)
	c.MustMarkOutput(g1)
	c.MustMarkOutput(g2)
	act, err := Activate(c, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := act.Eval([]bool{true}, nil)
	if !out[0] || out[1] {
		t.Error("output order scrambled by Activate")
	}
}

// TestEvalManyMatchesQuery64 drives the grouped 512-lane batch path with
// a batch count that is not a multiple of 8, so both the wide groups and
// the Run64 tail execute, and checks every word against per-batch
// Query64 on a second oracle.
func TestEvalManyMatchesQuery64(t *testing.T) {
	c := buildWide(t)
	batch := MustNewSim(c)
	single := MustNewSim(c)
	rng := rand.New(rand.NewSource(5))
	const nBatches = 19 // 2 full groups of 8 + a 3-batch tail
	ins := make([][]uint64, nBatches)
	for i := range ins {
		ins[i] = make([]uint64, c.NumInputs())
		for j := range ins[i] {
			ins[i][j] = rng.Uint64()
		}
	}
	outs, err := batch.EvalMany(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != nBatches {
		t.Fatalf("got %d output batches, want %d", len(outs), nBatches)
	}
	for i := range ins {
		want, err := single.Query64(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		for o := range want {
			if outs[i][o] != want[o] {
				t.Errorf("batch %d out[%d] = %#x, want %#x", i, o, outs[i][o], want[o])
			}
		}
	}
	if batch.Queries() != nBatches*64 {
		t.Errorf("Queries = %d, want %d", batch.Queries(), nBatches*64)
	}
	// A short row anywhere in the group must fail loudly, not crash the
	// transpose.
	bad := append(append([][]uint64(nil), ins[:3]...), []uint64{1})
	if _, err := batch.EvalMany(bad); err == nil {
		t.Error("EvalMany accepted a short input row")
	}
}

// TestEvalManyBatchesDoNotAlias pins that the output batches, cut from
// one backing array, stay independent: each is capped at its own
// length, so appending to or writing through one batch leaves every
// other batch, and a later call's results, untouched.
func TestEvalManyBatchesDoNotAlias(t *testing.T) {
	c := buildWide(t)
	o := MustNewSim(c)
	ins := make([][]uint64, 11) // a group of 8 and a 3-batch tail
	for i := range ins {
		ins[i] = make([]uint64, c.NumInputs())
		for j := range ins[i] {
			ins[i][j] = uint64(i*31 + j)
		}
	}
	outs, err := o.EvalMany(ins)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]uint64, len(outs))
	for i, out := range outs {
		if len(out) != c.NumOutputs() || cap(out) != len(out) {
			t.Fatalf("batch %d: len %d cap %d, want both %d", i, len(out), cap(out), c.NumOutputs())
		}
		want[i] = append([]uint64(nil), out...)
	}
	for i := range outs {
		outs[i] = append(outs[i], ^uint64(0))
	}
	for i := range outs {
		if !slices.Equal(outs[i][:c.NumOutputs()], want[i]) {
			t.Errorf("batch %d changed to %#x by appends to its neighbours, want %#x", i, outs[i], want[i])
		}
	}
	again, err := o.EvalMany(ins)
	if err != nil {
		t.Fatal(err)
	}
	again[0][0] ^= 1
	for i := range want {
		if !slices.Equal(outs[i][:c.NumOutputs()], want[i]) {
			t.Errorf("batch %d of the first call changed by the second call", i)
		}
	}
}

// buildWide returns a multi-input multi-output circuit exercising more
// than one word per port in the grouped transpose.
func buildWide(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("wide")
	var ids []netlist.ID
	for i := 0; i < 9; i++ {
		ids = append(ids, c.MustAddInput(fmt.Sprintf("i%d", i)))
	}
	g1 := c.MustAddGate(netlist.And, "g1", ids[0], ids[1], ids[2])
	g2 := c.MustAddGate(netlist.Xor, "g2", ids[3], ids[4])
	g3 := c.MustAddGate(netlist.Nor, "g3", ids[5], ids[6], ids[7], ids[8])
	g4 := c.MustAddGate(netlist.Xnor, "g4", g1, g2)
	c.MustMarkOutput(g4)
	c.MustMarkOutput(g3)
	c.MustMarkOutput(g2)
	return c
}
