package netlist

import (
	"fmt"
	"math/rand"
	"testing"
)

// evalInterpreted is an independent reference for the compiled program:
// it walks the topological order calling the per-gate interpreted Eval64
// (the pre-compilation simulation semantics) with a fanin gather per
// gate. Every lane width of the compiled kernel must agree with it
// bit-for-bit.
func evalInterpreted(t testing.TB, c *Circuit, in, key []uint64) []uint64 {
	t.Helper()
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	vals := make([]uint64, c.NumGates())
	for i, id := range c.Inputs() {
		vals[id] = in[i]
	}
	for i, id := range c.Keys() {
		vals[id] = key[i]
	}
	var fan []uint64
	for _, id := range order {
		g := c.Gate(id)
		if g.Type == Input {
			continue
		}
		fan = fan[:0]
		for _, f := range g.Fanin {
			fan = append(fan, vals[f])
		}
		vals[id] = g.Type.Eval64(fan)
	}
	out := make([]uint64, c.NumOutputs())
	for i, id := range c.Outputs() {
		out[i] = vals[id]
	}
	return out
}

// randomProgramCircuit builds a random DAG exercising every gate type,
// n-ary fanin decomposition, and multi-output gather. Small nIn values
// (< 6) exercise the partial-lane edge of the wide enumeration callers.
func randomProgramCircuit(rng *rand.Rand, nIn, nKey, nGates int) *Circuit {
	c := New("rand")
	var pool []ID
	for i := 0; i < nIn; i++ {
		pool = append(pool, c.MustAddInput(fmt.Sprintf("in%d", i)))
	}
	for i := 0; i < nKey; i++ {
		pool = append(pool, c.MustAddKey(fmt.Sprintf("k%d", i)))
	}
	types := []GateType{Const0, Const1, Buf, Not, And, Nand, Or, Nor, Xor, Xnor}
	for i := 0; i < nGates; i++ {
		t := types[rng.Intn(len(types))]
		var fanin []ID
		switch t.MinFanin() {
		case 0:
		case 1:
			fanin = []ID{pool[rng.Intn(len(pool))]}
		default:
			k := 2 + rng.Intn(4) // 2..5 fanins: exercises the n-ary chain
			for j := 0; j < k; j++ {
				fanin = append(fanin, pool[rng.Intn(len(pool))])
			}
		}
		pool = append(pool, c.MustAddGate(t, fmt.Sprintf("g%d", i), fanin...))
	}
	// Mark the last few gates (and at least one) as outputs.
	nOut := 1 + rng.Intn(4)
	for i := 0; i < nOut; i++ {
		c.MustMarkOutput(pool[len(pool)-1-i])
	}
	return c
}

// TestProgramWidthsAgree is the lane-agreement property test: for random
// circuits and random packed patterns, Run64, Run512, scalar Run, and
// EvalBool all agree with the interpreted reference.
func TestProgramWidthsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nIn := 1 + rng.Intn(10) // includes n < 6 edge widths
		nKey := rng.Intn(5)
		nGates := 1 + rng.Intn(40)
		c := randomProgramCircuit(rng, nIn, nKey, nGates)
		sim := MustNewSimulator(c)

		// 8 word groups of random patterns: group g is one Run64 batch,
		// groups 0..7 a Run512 batch.
		in8 := make([][8]uint64, nIn)
		key8 := make([][8]uint64, nKey)
		for i := range in8 {
			for j := range in8[i] {
				in8[i][j] = rng.Uint64()
			}
		}
		for i := range key8 {
			for j := range key8[i] {
				key8[i][j] = rng.Uint64()
			}
		}
		want := make([][]uint64, 8)
		in1 := make([]uint64, nIn)
		key1 := make([]uint64, nKey)
		for g := 0; g < 8; g++ {
			for i := range in8 {
				in1[i] = in8[i][g]
			}
			for i := range key8 {
				key1[i] = key8[i][g]
			}
			want[g] = evalInterpreted(t, c, in1, key1)

			got, err := sim.Run64(in1, key1)
			if err != nil {
				t.Fatalf("trial %d: Run64: %v", trial, err)
			}
			for o := range got {
				if got[o] != want[g][o] {
					t.Fatalf("trial %d group %d: Run64 out[%d] = %#x, want %#x", trial, g, o, got[o], want[g][o])
				}
			}

			// Scalar Run vs pattern 0 of the group, and EvalBool per gate
			// semantics via the circuit's one-shot Eval.
			inB := make([]bool, nIn)
			keyB := make([]bool, nKey)
			for i := range inB {
				inB[i] = in1[i]&1 != 0
			}
			for i := range keyB {
				keyB[i] = key1[i]&1 != 0
			}
			outB, err := sim.Run(inB, keyB)
			if err != nil {
				t.Fatalf("trial %d: Run: %v", trial, err)
			}
			for o := range outB {
				if outB[o] != (want[g][o]&1 != 0) {
					t.Fatalf("trial %d group %d: scalar Run out[%d] = %v, want %v", trial, g, o, outB[o], want[g][o]&1 != 0)
				}
			}
		}

		got8, err := sim.Run512(in8, key8)
		if err != nil {
			t.Fatalf("trial %d: Run512: %v", trial, err)
		}
		for o := range got8 {
			for g := 0; g < 8; g++ {
				if got8[o][g] != want[g][o] {
					t.Fatalf("trial %d: Run512 out[%d] word %d = %#x, want %#x", trial, o, g, got8[o][g], want[g][o])
				}
			}
		}
	}
}

// TestProgramEmitRejectsAliasing locks the compile-time invariant the
// n-ary accumulate-into-dst decomposition depends on.
func TestProgramEmitRejectsAliasing(t *testing.T) {
	p := NewProgram(4)
	if err := p.Emit(And, 2, []int32{0, 2, 1}); err == nil {
		t.Fatal("Emit accepted dst aliasing an argument")
	}
	if err := p.Emit(And, -1, []int32{0, 1}); err == nil {
		t.Fatal("Emit accepted a negative dst")
	}
	if err := p.Emit(Not, 2, []int32{-3}); err == nil {
		t.Fatal("Emit accepted a negative arg")
	}
	if err := p.Emit(And, 2, []int32{0}); err == nil {
		t.Fatal("Emit accepted a 1-fanin AND")
	}
	if err := p.Emit(Input, 2, []int32{0}); err != nil {
		t.Fatalf("Emit rejected Input-as-Buf: %v", err)
	}
}

// emitOp is one raw Emit call of a hand-built program.
type emitOp struct {
	t    GateType
	dst  int32
	args []int32
}

// TestProgramScheduleHazards checks that Schedule never changes what a
// program computes, on raw Emit streams that stress its hazard rule:
// registers overwritten after being read (write-after-read) and written
// twice (write-after-write), input registers overwritten, n-ary
// accumulate chains whose destination is later reused, and constant ops
// re-targeted at live registers. The reference interprets the Emit calls
// in order with the per-gate Eval64; the scheduled program must leave
// the same register file at 64 and 512 lanes, and so must the
// unscheduled one.
func TestProgramScheduleHazards(t *testing.T) {
	cases := map[string][]emitOp{
		"reuse": {
			{And, 4, []int32{0, 1}},
			{Not, 5, []int32{4}},
			{Or, 4, []int32{5, 2}}, // WAW on 4, WAR against the Not
			{Xor, 6, []int32{4, 3}},
			{Const1, 5, nil}, // WAR against the Or
			{Nand, 7, []int32{5, 6, 0}},
			{Not, 0, []int32{7}}, // an input register overwritten
			{Xnor, 1, []int32{0, 4}},
		},
		"accumulate": {
			{Nor, 8, []int32{0, 1, 2, 3}},
			{Xnor, 9, []int32{8, 0, 1, 2, 3}},
			{And, 8, []int32{9, 1, 2}}, // the chain's register reused as a chain
			{Or, 10, []int32{8, 9, 3}},
			{Xor, 9, []int32{10, 8, 0, 2}},
			{Buf, 11, []int32{9}},
		},
		"constants": {
			{Const0, 10, nil},
			{Or, 11, []int32{10, 0}},
			{Const1, 10, nil},
			{And, 12, []int32{10, 1, 11}},
			{Const0, 11, nil},
			{Nor, 13, []int32{11, 12}},
			{Const1, 0, nil},
			{Xor, 14, []int32{0, 13}},
		},
	}
	rng := rand.New(rand.NewSource(5))
	types := []GateType{Const0, Const1, Buf, Not, And, Nand, Or, Nor, Xor, Xnor}
	for trial := 0; trial < 200; trial++ {
		nRegs := 3 + rng.Intn(10)
		ops := make([]emitOp, 1+rng.Intn(40))
		for i := range ops {
			op := emitOp{t: types[rng.Intn(len(types))], dst: int32(rng.Intn(nRegs))}
			k := 0
			switch op.t.MinFanin() {
			case 0:
			case 1:
				k = 1
			default:
				k = 2 + rng.Intn(3)
			}
			for len(op.args) < k {
				if a := int32(rng.Intn(nRegs)); a != op.dst {
					op.args = append(op.args, a)
				}
			}
			ops[i] = op
		}
		cases[fmt.Sprintf("random%d", trial)] = ops
	}

	for name, ops := range cases {
		inOrder, scheduled := NewProgram(0), NewProgram(0)
		for _, op := range ops {
			for _, p := range []*Program{inOrder, scheduled} {
				if err := p.Emit(op.t, op.dst, op.args); err != nil {
					t.Fatalf("%s: Emit: %v", name, err)
				}
			}
		}
		scheduled.Schedule()
		if scheduled.Len() != inOrder.Len() {
			t.Fatalf("%s: Schedule changed the op count %d → %d", name, inOrder.Len(), scheduled.Len())
		}
		nRegs := scheduled.NumRegs()

		// Register r of word group g starts at init[r][g].
		init := make([][8]uint64, nRegs)
		for r := range init {
			for g := range init[r] {
				init[r][g] = rng.Uint64()
			}
		}
		want := make([][8]uint64, nRegs)
		copy(want, init)
		var fan []uint64
		for g := 0; g < 8; g++ {
			for _, op := range ops {
				fan = fan[:0]
				for _, a := range op.args {
					fan = append(fan, want[a][g])
				}
				want[op.dst][g] = op.t.Eval64(fan)
			}
		}

		for _, width := range []int{1, 8} {
			for _, p := range []struct {
				label string
				prog  *Program
			}{{"scheduled", scheduled}, {"in-order", inOrder}} {
				for g0 := 0; g0 < 8; g0 += width {
					regs := make([]uint64, nRegs*width)
					for r := range init {
						copy(regs[r*width:(r+1)*width], init[r][g0:g0+width])
					}
					if width == 1 {
						p.prog.Exec(regs)
					} else {
						p.prog.Exec512(regs)
					}
					for r := range want {
						for j := 0; j < width; j++ {
							if got := regs[r*width+j]; got != want[r][g0+j] {
								t.Fatalf("%s: %s program at %d lanes: register %d word %d = %#x, want %#x",
									name, p.label, 64*width, r, g0+j, got, want[r][g0+j])
							}
						}
					}
				}
			}
		}
	}
}

// TestSimulatorRunsDoNotAllocate asserts the hot paths are
// allocation-free once the lazily-created banks exist.
func TestSimulatorRunsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomProgramCircuit(rng, 8, 4, 64)
	sim := MustNewSimulator(c)
	in1 := make([]uint64, 8)
	key1 := make([]uint64, 4)
	in8 := make([][8]uint64, 8)
	key8 := make([][8]uint64, 4)
	inB := make([]bool, 8)
	keyB := make([]bool, 4)
	// Warm every lazily-allocated buffer.
	if _, err := sim.Run64(in1, key1); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run512(in8, key8); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(inB, keyB); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Run64", func() { sim.Run64(in1, key1) }},
		{"Run512", func() { sim.Run512(in8, key8) }},
		{"Run", func() { sim.Run(inB, keyB) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkRunWidths measures the compiled kernel at each lane width on
// random circuits with an even gate-type mix: a mid-size one and one
// the size of a paper Table-I locked circuit (|K| = 32, about 2.5k
// gates). See the root bench_test.go for the ISCAS85 profile variants.
// ns/pattern is the comparable figure across widths and sizes.
func BenchmarkRunWidths(b *testing.B) {
	for _, size := range []struct {
		name              string
		nIn, nKey, nGates int
	}{
		{"mid", 24, 8, 400},
		{"tablei", 64, 32, 2500},
	} {
		rng := rand.New(rand.NewSource(3))
		c := randomProgramCircuit(rng, size.nIn, size.nKey, size.nGates)
		sim := MustNewSimulator(c)
		in1 := make([]uint64, size.nIn)
		key1 := make([]uint64, size.nKey)
		in8 := make([][8]uint64, size.nIn)
		key8 := make([][8]uint64, size.nKey)
		for i := range in1 {
			in1[i] = rng.Uint64()
			for j := 0; j < 8; j++ {
				in8[i][j] = rng.Uint64()
			}
		}
		run := func(patterns int, fn func()) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(patterns), "ns/pattern")
			}
		}
		b.Run(size.name+"/w64", run(64, func() { sim.Run64(in1, key1) }))
		b.Run(size.name+"/w512", run(512, func() { sim.Run512(in8, key8) }))
	}
}

// FuzzProgramVsEval64 decodes the fuzz input into a small DAG and checks
// the compiled, scheduled program against the interpreted per-gate
// Eval64 at every lane width. The decoder is total: any byte string yields a valid
// circuit, so the fuzzer explores structure rather than parser errors.
func FuzzProgramVsEval64(f *testing.F) {
	f.Add([]byte{3, 1, 5, 0x11, 0x22, 0x33, 0x44})
	f.Add([]byte{1, 0, 9, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77})
	f.Add([]byte{6, 2, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		nIn := 1 + int(next())%8
		nKey := int(next()) % 4
		nGates := 1 + int(next())%24

		c := New("fuzz")
		var pool []ID
		for i := 0; i < nIn; i++ {
			pool = append(pool, c.MustAddInput(fmt.Sprintf("in%d", i)))
		}
		for i := 0; i < nKey; i++ {
			pool = append(pool, c.MustAddKey(fmt.Sprintf("k%d", i)))
		}
		types := []GateType{Const0, Const1, Buf, Not, And, Nand, Or, Nor, Xor, Xnor}
		for i := 0; i < nGates; i++ {
			gt := types[int(next())%len(types)]
			var fanin []ID
			switch gt.MinFanin() {
			case 0:
			case 1:
				fanin = []ID{pool[int(next())%len(pool)]}
			default:
				k := 2 + int(next())%3
				for j := 0; j < k; j++ {
					fanin = append(fanin, pool[int(next())%len(pool)])
				}
			}
			pool = append(pool, c.MustAddGate(gt, fmt.Sprintf("g%d", i), fanin...))
		}
		c.MustMarkOutput(pool[len(pool)-1])

		// Patterns derived from the remaining bytes, deterministically.
		rng := rand.New(rand.NewSource(int64(nIn)<<16 ^ int64(nGates) ^ int64(next())<<8))
		in8 := make([][8]uint64, nIn)
		key8 := make([][8]uint64, nKey)
		for i := range in8 {
			for j := range in8[i] {
				in8[i][j] = rng.Uint64()
			}
		}
		for i := range key8 {
			for j := range key8[i] {
				key8[i][j] = rng.Uint64()
			}
		}

		sim, err := NewSimulator(c)
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		in1 := make([]uint64, nIn)
		key1 := make([]uint64, nKey)
		want := make([][]uint64, 8)
		for g := 0; g < 8; g++ {
			for i := range in8 {
				in1[i] = in8[i][g]
			}
			for i := range key8 {
				key1[i] = key8[i][g]
			}
			want[g] = evalInterpreted(t, c, in1, key1)
			got, err := sim.Run64(in1, key1)
			if err != nil {
				t.Fatalf("Run64: %v", err)
			}
			for o := range got {
				if got[o] != want[g][o] {
					t.Fatalf("Run64 group %d out[%d] = %#x, want %#x", g, o, got[o], want[g][o])
				}
			}
		}
		got8, err := sim.Run512(in8, key8)
		if err != nil {
			t.Fatalf("Run512: %v", err)
		}
		for o := range got8 {
			for g := 0; g < 8; g++ {
				if got8[o][g] != want[g][o] {
					t.Fatalf("Run512 out[%d] word %d = %#x, want %#x", o, g, got8[o][g], want[g][o])
				}
			}
		}
	})
}
