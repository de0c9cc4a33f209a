package miter

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/sat"
	"repro/internal/synth"
)

// keyedInstance locks a small random host with a registry scheme. The
// host has the scheme's minimum width, drawn up to 10 inputs; CAS-Lock's
// default chain needs 11.
func keyedInstance(s lock.Scheme, seed int64) (*lock.Locked, error) {
	rng := rand.New(rand.NewSource(seed))
	nIn := max(s.MinHostInputs, 4+rng.Intn(7))
	host, err := synth.Generate(synth.Config{
		Name: "h", Inputs: nIn, Outputs: 1 + rng.Intn(3), Gates: 20 + rng.Intn(40), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	l, _, err := s.Apply(host, seed+1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	return l, nil
}

func mustKeyedInstance(t *testing.T, s lock.Scheme, seed int64) *lock.Locked {
	t.Helper()
	l, err := keyedInstance(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// keyPairs returns the pairs the keyed miter is checked on: identical
// keys, the joint complement of the issued key and of a random key, two
// random keys, and the issued key against a one-bit neighbour.
func keyPairs(golden []bool, rng *rand.Rand) [][2][]bool {
	random := func() []bool {
		k := make([]bool, len(golden))
		for i := range k {
			k[i] = rng.Intn(2) == 1
		}
		return k
	}
	complement := func(k []bool) []bool {
		out := make([]bool, len(k))
		for i, b := range k {
			out[i] = !b
		}
		return out
	}
	r := random()
	flip := append([]bool(nil), golden...)
	i := rng.Intn(len(flip))
	flip[i] = !flip[i]
	return [][2][]bool{
		{golden, golden},
		{golden, complement(golden)},
		{r, complement(r)},
		{random(), random()},
		{golden, flip},
	}
}

// exhaustiveDiff simulates the locked circuit under both keys on every
// input pattern and returns the first one on which they differ, or nil.
func exhaustiveDiff(t testing.TB, c *netlist.Circuit, keyA, keyB []bool) []bool {
	t.Helper()
	sim := netlist.MustNewSimulator(c)
	n := c.NumInputs()
	broadcast := func(k []bool) []uint64 {
		w := make([]uint64, len(k))
		for i, b := range k {
			if b {
				w[i] = ^uint64(0)
			}
		}
		return w
	}
	wa, wb := broadcast(keyA), broadcast(keyB)
	in := make([]uint64, n)
	for base := uint64(0); base < 1<<uint(n); base += 64 {
		for i := range in {
			in[i] = 0
			for l := uint64(0); l < 64; l++ {
				if (base+l)&(1<<uint(i)) != 0 {
					in[i] |= 1 << l
				}
			}
		}
		outA, err := sim.Run64(in, wa)
		if err != nil {
			t.Fatal(err)
		}
		outA = append([]uint64(nil), outA...)
		outB, err := sim.Run64(in, wb)
		if err != nil {
			t.Fatal(err)
		}
		var diff uint64
		for i := range outA {
			diff |= outA[i] ^ outB[i]
		}
		if lanes := uint64(1) << uint(n); lanes-base < 64 {
			diff &= (uint64(1) << (lanes - base)) - 1
		}
		for l := uint64(0); l < 64; l++ {
			if diff&(1<<l) != 0 {
				return netlist.PatternFromUint(base+l, n)
			}
		}
	}
	return nil
}

// distinguishes reports whether the locked circuit's outputs under the
// two keys differ on the input.
func distinguishes(t testing.TB, c *netlist.Circuit, in, keyA, keyB []bool) bool {
	t.Helper()
	oa, err := c.Eval(in, keyA)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := c.Eval(in, keyB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oa {
		if oa[i] != ob[i] {
			return true
		}
	}
	return false
}

// checkKeyedPair decides one key pair four ways — the keyed miter, the
// hashed miter over two activated copies, the plain Tseitin miter over
// the same copies, and exhaustive simulation — and requires agreement,
// plus a distinguishing witness whenever the keyed miter finds one. It
// returns the agreed verdict.
func checkKeyedPair(t testing.TB, label string, c *netlist.Circuit, keyA, keyB []bool) bool {
	t.Helper()
	eq, w, err := ProveKeysEquivalentBudget(c, keyA, keyB, 0)
	if err != nil {
		t.Fatalf("%s: keyed miter: %v", label, err)
	}
	actA, err := oracle.Activate(c, keyA)
	if err != nil {
		t.Fatal(err)
	}
	actB, err := oracle.Activate(c, keyB)
	if err != nil {
		t.Fatal(err)
	}
	hashed, _, err := ProveEquivalentHashed(actA, actB)
	if err != nil {
		t.Fatalf("%s: hashed miter: %v", label, err)
	}
	plain, _, err := ProveEquivalent(actA, actB)
	if err != nil {
		t.Fatalf("%s: plain miter: %v", label, err)
	}
	exhaustive := exhaustiveDiff(t, c, keyA, keyB) == nil
	if eq != hashed || eq != plain || eq != exhaustive {
		t.Fatalf("%s: verdicts disagree: keyed=%v activated-hashed=%v plain=%v exhaustive=%v",
			label, eq, hashed, plain, exhaustive)
	}
	if eq && w != nil {
		t.Fatalf("%s: equivalent verdict carries a witness", label)
	}
	if !eq && !distinguishes(t, c, w, keyA, keyB) {
		t.Fatalf("%s: SAT witness %v does not distinguish the keys", label, w)
	}
	return eq
}

// checkInputFolding checks the hashed encoder with primary inputs as
// constants. With the inputs in mask fixed to the matching bits of vals,
// the key pair is decided over that subcube of inputs and compared with
// exhaustive simulation of the subcube; a witness must lie in it and
// distinguish the keys. With every input fixed to vals, each output
// must fold to the constant that simulation gives under keyA.
func checkInputFolding(t testing.TB, label string, c *netlist.Circuit, keyA, keyB []bool, mask, vals uint64) {
	t.Helper()
	n := c.NumInputs()
	mask &= 1<<uint(n) - 1
	bit := func(w uint64, i int) bool { return w>>uint(i)&1 == 1 }

	solver := sat.New()
	h := cnf.NewHasher(solver, 0)
	all := make([]cnf.Lit, n)
	for i := range all {
		all[i] = h.Const(bit(vals, i))
	}
	outs, err := h.Encode(c, all, constants(h, keyA), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Eval(netlist.PatternFromUint(vals, n), keyA)
	if err != nil {
		t.Fatal(err)
	}
	for o, l := range outs {
		if l != h.Const(want[o]) {
			t.Fatalf("%s: output %d under constant inputs %b is literal %d, want the constant %v", label, o, vals, l, want[o])
		}
	}

	inputs := make([]cnf.Lit, n)
	for i := range inputs {
		if bit(mask, i) {
			inputs[i] = h.Const(bit(vals, i))
		} else {
			inputs[i] = solver.NewVar()
		}
	}
	outsA, err := h.Encode(c, inputs, constants(h, keyA), nil)
	if err != nil {
		t.Fatal(err)
	}
	outsB, err := h.Encode(c, inputs, constants(h, keyB), nil)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for p := uint64(0); p < 1<<uint(n) && !differs; p++ {
		if (p^vals)&mask == 0 {
			differs = distinguishes(t, c, netlist.PatternFromUint(p, n), keyA, keyB)
		}
	}
	st := solver.Solve(h.Diff(outsA, outsB))
	if st == sat.Unknown || (st == sat.Sat) != differs {
		t.Fatalf("%s: on the subcube %b/%b the folded miter says %v, simulation differs=%v", label, mask, vals, st, differs)
	}
	if st == sat.Sat {
		w := make([]bool, n)
		for i, l := range inputs {
			w[i] = solver.ModelValue(l)
			if bit(mask, i) && w[i] != bit(vals, i) {
				t.Fatalf("%s: witness leaves the subcube at input %d", label, i)
			}
		}
		if !distinguishes(t, c, w, keyA, keyB) {
			t.Fatalf("%s: folded witness %v does not distinguish the keys", label, w)
		}
	}
}

// TestKeyedMiterDifferential checks the keyed miter against the
// independent deciders on every registry scheme with random and
// joint-complement key pairs. Distinct keys must come out both ways
// (equivalent ones are the multi-key schemes' correct keys and joint
// complements), so neither verdict goes unchecked. Each pair is also
// decided with random inputs folded in as constants.
func TestKeyedMiterDifferential(t *testing.T) {
	var equivalent, differing int
	for _, s := range lock.Schemes() {
		for seed := int64(1); seed <= 4; seed++ {
			l := mustKeyedInstance(t, s, seed*31)
			rng := rand.New(rand.NewSource(seed))
			for i, p := range keyPairs(l.Key, rng) {
				label := fmt.Sprintf("%s/seed%d/pair%d", s.Name, seed, i)
				eq := checkKeyedPair(t, label, l.Circuit, p[0], p[1])
				checkInputFolding(t, label, l.Circuit, p[0], p[1], rng.Uint64(), rng.Uint64())
				switch {
				case !eq:
					differing++
				case i > 0:
					equivalent++
				}
			}
		}
	}
	if differing == 0 || equivalent == 0 {
		t.Errorf("%d equivalent and %d differing pairs of distinct keys, want both", equivalent, differing)
	}
	t.Logf("%d equivalent and %d differing pairs of distinct keys", equivalent, differing)
}

// TestKeyedMiterBudgetContract pins the Unknown-means-equivalent
// contract under a starved budget: every verdict is either a
// distinguishing witness or "equivalent" with a nil witness, and at
// least one differing pair comes back equivalent, so the Unknown path
// really ran.
func TestKeyedMiterBudgetContract(t *testing.T) {
	unknowns := 0
	for _, s := range lock.Schemes() {
		for seed := int64(1); seed <= 4; seed++ {
			l := mustKeyedInstance(t, s, seed*31)
			rng := rand.New(rand.NewSource(seed))
			for _, p := range keyPairs(l.Key, rng) {
				eq, w, err := ProveKeysEquivalentBudget(l.Circuit, p[0], p[1], 1)
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				if eq {
					if w != nil {
						t.Fatalf("%s: budgeted equivalent verdict carries a witness", s.Name)
					}
					if exhaustiveDiff(t, l.Circuit, p[0], p[1]) != nil {
						unknowns++
					}
					continue
				}
				if !distinguishes(t, l.Circuit, w, p[0], p[1]) {
					t.Fatalf("%s: budgeted witness does not distinguish the keys", s.Name)
				}
			}
		}
	}
	if unknowns == 0 {
		t.Fatal("a one-conflict budget never ran out: the Unknown path went untested")
	}
	t.Logf("%d differing pairs reported equivalent under a one-conflict budget", unknowns)
}

// TestKeyedMiterRejectsBadKeys: keys of the wrong length are errors.
func TestKeyedMiterRejectsBadKeys(t *testing.T) {
	l := mustKeyedInstance(t, lock.Schemes()[0], 3)
	if _, _, err := ProveKeysEquivalentBudget(l.Circuit, l.Key[1:], l.Key, 0); err == nil {
		t.Error("short key accepted")
	}
}

// FuzzKeyedMiter draws a registry scheme, a small random host and a key
// pair, and requires the keyed miter to agree with the activated-copy
// miters and exhaustive simulation. Its folding leg fixes the inputs in
// fix to the bits of vals and checks the hashed encoding of that
// subcube against simulation.
func FuzzKeyedMiter(f *testing.F) {
	for i := range lock.Schemes() {
		f.Add(uint8(i), int64(i+1), int64(7*i), uint8(i), uint16(0x155*i), uint16(0x2a3*i))
	}
	f.Fuzz(func(t *testing.T, scheme uint8, seed, keySeed int64, pair uint8, fix, vals uint16) {
		schemes := lock.Schemes()
		s := schemes[int(scheme)%len(schemes)]
		l, err := keyedInstance(s, seed)
		if err != nil {
			t.Skip(err) // the scheme cannot lock this random host
		}
		pairs := keyPairs(l.Key, rand.New(rand.NewSource(keySeed)))
		p := pairs[int(pair)%len(pairs)]
		_ = checkKeyedPair(t, s.Name, l.Circuit, p[0], p[1])
		checkInputFolding(t, s.Name, l.Circuit, p[0], p[1], uint64(fix), uint64(vals))
	})
}
