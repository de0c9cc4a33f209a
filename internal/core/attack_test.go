package core

import (
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
)

func host(t *testing.T, inputs int) *netlist.Circuit {
	t.Helper()
	c, err := synth.Generate(synth.Config{Name: "h", Inputs: inputs, Outputs: 3, Gates: 50, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomChain(rng *rand.Rand, n int) lock.ChainConfig {
	chain := make(lock.ChainConfig, n-1)
	for i := range chain {
		if rng.Intn(2) == 0 {
			chain[i] = lock.ChainOr
		}
	}
	return chain
}

func TestDiscoverLayout(t *testing.T) {
	h := host(t, 10)
	locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{
		Chain:    lock.MustParseChain("A-O-2A"),
		InputSel: []int{7, 2, 5, 0, 9},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DiscoverLayout(locked.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if layout.N() != 5 {
		t.Fatalf("N = %d", layout.N())
	}
	for i, want := range inst.InputSel {
		if layout.InputPos[i] != want {
			t.Errorf("InputPos[%d] = %d, want %d", i, layout.InputPos[i], want)
		}
	}
	for i := 0; i < 5; i++ {
		if layout.Key1Pos[i] != i || layout.Key2Pos[i] != 5+i {
			t.Errorf("key positions scrambled at %d: %d/%d", i, layout.Key1Pos[i], layout.Key2Pos[i])
		}
	}
	if err := layout.Validate(locked.Circuit); err != nil {
		t.Error(err)
	}
}

func TestDiscoverLayoutRejectsNonCAS(t *testing.T) {
	h := host(t, 10)
	if _, err := DiscoverLayout(h); err == nil {
		t.Error("key-free circuit accepted")
	}
	rll, _, err := lock.ApplyRLL(h, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverLayout(rll.Circuit); err == nil {
		t.Error("RLL circuit accepted as CAS layout")
	}
}

// TestDiscoverLayoutRefusesExtraKeyFanout pins the premise of one
// candidate per joint-complement class: a key bit that drives anything
// besides its one XOR/XNOR key gate — another gate, or a primary output
// — is refused with an error naming the key.
func TestDiscoverLayoutRefusesExtraKeyFanout(t *testing.T) {
	for _, tc := range []struct {
		name  string
		taint func(c *netlist.Circuit, key netlist.ID)
	}{
		{"extra-gate", func(c *netlist.Circuit, key netlist.ID) {
			c.MustAddGate(netlist.And, "tap", key, c.Inputs()[0])
		}},
		{"primary-output", func(c *netlist.Circuit, key netlist.ID) {
			c.MustMarkOutput(key)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			locked, _, err := lock.ApplyCAS(host(t, 10), lock.CASOptions{
				Chain: lock.MustParseChain("A-O-2A"),
				Seed:  1,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := locked.Circuit
			if _, err := DiscoverLayout(c); err != nil {
				t.Fatalf("untainted netlist refused: %v", err)
			}
			key := c.Keys()[3]
			tc.taint(c, key)
			_, err = DiscoverLayout(c)
			if err == nil {
				t.Fatal("key with extra fanout accepted")
			}
			if name := c.Gate(key).Name; !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not name key %q", err, name)
			}
		})
	}
}

// keyGatesMatch reports whether recovered key-gate vectors equal the
// instance's, allowing the inherent joint complement of both blocks.
func keyGatesMatch(inst *lock.CASInstance, kg1, kg2 []netlist.GateType) bool {
	direct := true
	flipped := true
	for i := range kg1 {
		if kg1[i] != inst.KeyGates1[i] || kg2[i] != inst.KeyGates2[i] {
			direct = false
		}
		if kg1[i] == inst.KeyGates1[i] || kg2[i] == inst.KeyGates2[i] {
			flipped = false
		}
	}
	return direct || flipped
}

// TestAttackRandomInstances is the paper's headline claim: 100% key
// recovery across random chain configurations and random, independent
// XOR/XNOR key gates in both blocks — including OR-terminated chains
// (Case 2) and random input selections.
func TestAttackRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(5)
		chain := randomChain(rng, n)
		h := host(t, n+3)
		sel := rng.Perm(h.NumInputs())[:n]
		locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{
			Chain:    chain,
			InputSel: sel,
			Seed:     rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		orc := oracle.MustNewSim(h)
		res, err := Run(Options{Locked: locked.Circuit, Oracle: orc, Seed: rng.Int63()})
		if err != nil {
			t.Fatalf("trial %d (chain %s): %v", trial, chain, err)
		}
		if !inst.IsCorrectCASKey(res.Key) {
			t.Fatalf("trial %d (chain %s): recovered key is wrong", trial, chain)
		}
		ok, err := miter.ProveUnlocked(locked.Circuit, res.Key, h)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: key not SAT-proven", trial)
		}
		// Every CAS instance has two exact black-box descriptions: the
		// primal chain and its De Morgan dual with the blocks' roles
		// exchanged. Accept either.
		if !res.Chain.Equal(chain) && !res.Chain.Equal(dualChain(chain)) {
			t.Fatalf("trial %d: chain %s recovered as %s", trial, chain, res.Chain)
		}
		if res.Chain.Equal(chain) && !keyGatesMatch(inst, res.KeyGates1, res.KeyGates2) {
			t.Fatalf("trial %d: key gates misidentified", trial)
		}
		if res.Case != 1 && res.Case != 2 {
			t.Fatalf("trial %d: case %d", trial, res.Case)
		}
	}
}

// TestAttackAlignedMatchesLemma2 reproduces the regime of the paper's
// Table I: with both blocks using the same key-gate polarities, the
// extracted DIP count equals Lemma 2's closed form exactly.
func TestAttackAlignedMatchesLemma2(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(4)
		chain := randomChain(rng, n)
		chain[n-2] = lock.ChainAnd
		kg := make([]netlist.GateType, n)
		for i := range kg {
			kg[i] = netlist.Xor
			if rng.Intn(2) == 0 {
				kg[i] = netlist.Xnor
			}
		}
		h := host(t, n+2)
		locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{
			Chain: chain, KeyGates1: kg, KeyGates2: append([]netlist.GateType(nil), kg...), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{Locked: locked.Circuit, Oracle: oracle.MustNewSim(h), Seed: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.AlignedDIPs != MaxDIPs(chain) {
			t.Errorf("trial %d: AlignedDIPs %d, MaxDIPs %d", trial, res.AlignedDIPs, MaxDIPs(chain))
		}
		if res.TotalDIPs != res.AlignedDIPs {
			t.Errorf("trial %d: aligned instance but |I_l|=%d ≠ |A|=%d", trial, res.TotalDIPs, res.AlignedDIPs)
		}
		if !inst.IsCorrectCASKey(res.Key) {
			t.Errorf("trial %d: wrong key", trial)
		}
	}
}

// TestExtractorsAgree cross-checks the extraction engines on the same
// instances and assignments for every chain width n ≤ 16: the sharded
// parallel simulation extractor must return a DIPSet bit-identical to
// the sequential (workers = 1) extractor at every width, and both must
// match the SAT engine where full SAT enumeration is affordable.
func TestExtractorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const satWidthMax = 10 // SAT enumerates one model per DIP; cap its share
	for n := 3; n <= 16; n++ {
		h := host(t, n+2)
		locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: randomChain(rng, n), Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		layout, err := DiscoverLayout(locked.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		var satEx *SATExtractor
		if n <= satWidthMax {
			satEx, err = NewSATExtractor(locked.Circuit, layout, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		seqEx, err := NewSimExtractor(locked.Circuit, layout, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		seqEx.SetWorkers(1)
		parEx, err := NewSimExtractor(locked.Circuit, layout, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		workers := runtime.NumCPU()
		if workers < 3 {
			workers = 3 // exercise real sharding even on small machines
		}
		parEx.SetWorkers(workers)
		nk := locked.Circuit.NumKeys()
		for round := 0; round < 2; round++ {
			assign := PairAssign{A: make([]bool, nk), B: make([]bool, nk)}
			for i := 0; i < nk; i++ {
				assign.A[i] = rng.Intn(2) == 1
				assign.B[i] = rng.Intn(2) == 1
			}
			seq, err := seqEx.DIPs(assign)
			if err != nil {
				t.Fatal(err)
			}
			par, err := parEx.DIPs(assign)
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Equal(par) {
				t.Fatalf("n=%d: parallel DIP set differs from sequential (%d vs %d DIPs)",
					n, par.Count(), seq.Count())
			}
			cseq, err := seqEx.Classes(assign)
			if err != nil {
				t.Fatal(err)
			}
			cpar, err := parEx.Classes(assign)
			if err != nil {
				t.Fatal(err)
			}
			if cseq != cpar {
				t.Fatalf("n=%d: parallel class sizes differ: %+v vs %+v", n, cpar, cseq)
			}
			if satEx == nil {
				continue
			}
			a, err := satEx.DIPs(assign)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(seq) {
				t.Fatalf("n=%d: SAT %d DIPs, sim %d, sets differ", n, a.Count(), seq.Count())
			}
			ca, err := satEx.Classes(assign)
			if err != nil {
				t.Fatal(err)
			}
			if ca.Big != cseq.Big || ca.Small != cseq.Small {
				t.Fatalf("n=%d: class sizes differ: %+v vs %+v", n, ca, cseq)
			}
		}
	}
}

// TestLemma1NoUndetectableDIPs verifies Lemma 1: under the paper's miter
// key assignment no input pattern flips both copies simultaneously, so
// every DIP of the copy-A key is miter-visible.
func TestLemma1NoUndetectableDIPs(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		chain := randomChain(rng, n)
		kg1 := make([]netlist.GateType, n)
		kg2 := make([]netlist.GateType, n)
		k1A := make([]bool, n)
		k1B := make([]bool, n)
		k2A := make([]bool, n)
		k2B := make([]bool, n)
		for i := 0; i < n; i++ {
			kg1[i], kg2[i] = netlist.Xor, netlist.Xor
			if rng.Intn(2) == 0 {
				kg1[i] = netlist.Xnor
			}
			if rng.Intn(2) == 0 {
				kg2[i] = netlist.Xnor
			}
		}
		// Case 1 or Case 2 assignment depending on the terminator.
		if chain.Terminator() == lock.ChainAnd {
			for i := range k1A {
				k1A[i] = true
			}
		} else {
			for i := range k2A {
				k2A[i] = true
			}
		}
		x := make([]uint64, n)
		for base := uint64(0); base < 1<<uint(n); base += 64 {
			for i := 0; i < n; i++ {
				if i < 6 {
					x[i] = lanePattern(i)
				} else if base&(1<<uint(i)) != 0 {
					x[i] = ^uint64(0)
				} else {
					x[i] = 0
				}
			}
			gA, gbA := lock.EvalCASPair(chain, kg1, kg2, k1A, k2A, x)
			gB, gbB := lock.EvalCASPair(chain, kg1, kg2, k1B, k2B, x)
			if (gA&gbA)&(gB&gbB) != 0 {
				t.Fatalf("trial %d chain %s: pattern flips both copies (undetectable DIP)", trial, chain)
			}
			if uint64(1)<<uint(n) <= 64 {
				break
			}
		}
	}
}

func TestAttackAntiSATDegenerate(t *testing.T) {
	// Anti-SAT = all-AND chain: a single DIP; the calibration sweep is
	// the exponential part, so keep the block small.
	h := host(t, 9)
	locked, inst, err := lock.ApplyAntiSAT(h, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Locked: locked.Circuit, Oracle: oracle.MustNewSim(h), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCorrectCASKey(res.Key) {
		t.Fatal("wrong Anti-SAT key")
	}
	if res.AlignedDIPs != 1 {
		t.Errorf("AlignedDIPs = %d, want 1", res.AlignedDIPs)
	}
}

func TestAttackComplexityScalesWithDIPs(t *testing.T) {
	// O(m): the DIP set is enumerated in simulation, so no oracle cost
	// grows with m. At most two block-role hypotheses each ask one
	// 64-pattern probe, and each candidate tried costs at most one
	// witness pattern.
	h := host(t, 12)
	for _, cfg := range []string{"6A-O-A", "2A-O-3A-O-A", "A-O-A-O-A-O-A-O"} {
		chain := lock.MustParseChain(cfg)
		locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{Chain: chain, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{Locked: locked.Circuit, Oracle: oracle.MustNewSim(h), Seed: 10})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if !inst.IsCorrectCASKey(res.Key) {
			t.Fatalf("%s: wrong key", cfg)
		}
		if bound := uint64(2*probeLanes + res.CandidatesTried); res.OracleQueries > bound {
			t.Errorf("%s: %d oracle queries for %d DIPs and %d candidates, want at most %d", cfg, res.OracleQueries, res.TotalDIPs, res.CandidatesTried, bound)
		}
	}
}

func TestMCASPipeline(t *testing.T) {
	h := host(t, 10)
	locked, inst, err := lock.ApplyMCAS(h, lock.CASOptions{Chain: lock.MustParseChain("2A-O-A"), Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	orc := oracle.MustNewSim(h)
	res, err := RunMCAS(locked.Circuit, orc, Options{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Inner.IsCorrectCASKey(res.Inner.Key) {
		t.Fatal("inner key wrong")
	}
	if !inst.IsCorrectMCASKey(res.Key) {
		t.Fatal("full M-CAS key wrong")
	}
	ok, err := miter.ProveUnlocked(locked.Circuit, res.Key, h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("M-CAS key not SAT-proven")
	}
}

func TestRunValidation(t *testing.T) {
	h := host(t, 8)
	if _, err := Run(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain("A-O-A"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Locked: locked.Circuit}); err == nil {
		t.Error("missing oracle accepted")
	}
}

// TestPackBlocksMatchesScatter checks the transposed batch packing
// against the per-bit scatter it replaced: for block widths up to 64,
// scattered chain positions and 0–64 lanes, both produce the same input
// words from the same rng draws, and leave the rng in the same state.
func TestPackBlocksMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		nIn := 1 + rng.Intn(80)
		n := 1 + rng.Intn(min(nIn, 64))
		pos := rng.Perm(nIn)[:n]
		blocks := make([]uint64, rng.Intn(65))
		for l := range blocks {
			blocks[l] = rng.Uint64() & blockMask(n)
		}
		seed := rng.Int63()
		a := &attack{layout: &BlockLayout{InputPos: pos}, rng: rand.New(rand.NewSource(seed))}
		got := make([]uint64, nIn)
		a.packBlocks(got, blocks)

		ref := rand.New(rand.NewSource(seed))
		want := make([]uint64, nIn)
		for i := range want {
			want[i] = ref.Uint64()
		}
		for _, p := range pos {
			want[p] = 0
		}
		for l, p := range blocks {
			for ; p != 0; p &= p - 1 {
				want[pos[bits.TrailingZeros64(p)]] |= 1 << uint(l)
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d, %d lanes): input %d = %#x, want %#x", trial, n, len(blocks), i, got[i], want[i])
			}
		}
		if a.rng.Uint64() != ref.Uint64() {
			t.Fatalf("trial %d: packBlocks drew a different number of random words", trial)
		}
	}
}
