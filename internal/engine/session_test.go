package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/synth"
)

// smallInstance locks a small random host with a registry scheme: the
// scheme's minimum width, at least 8 inputs, so exhaustive simulation
// over the inputs stays cheap. A host too shallow for the scheme (SLL
// chains its key gates along one path) is redrawn with the next seed.
func smallInstance(t *testing.T, s lock.Scheme, seed int64) *lock.Locked {
	t.Helper()
	var err error
	for try := int64(0); try < 8; try++ {
		rng := rand.New(rand.NewSource(seed + try))
		var host *netlist.Circuit
		host, err = synth.Generate(synth.Config{
			Name: "sh", Inputs: max(s.MinHostInputs, 8), Outputs: 2 + rng.Intn(2), Gates: 30 + rng.Intn(30), Seed: seed + try,
		})
		if err != nil {
			t.Fatal(err)
		}
		var l *lock.Locked
		if l, _, err = s.Apply(host, seed+1); err == nil {
			return l
		}
	}
	t.Fatalf("%s: %v", s.Name, err)
	return nil
}

// ioPair is one SAT-attack constraint: an input and the oracle's answer.
type ioPair struct{ in, out []bool }

// oracleAnswer evaluates the locked circuit under its issued key, which
// computes the host function.
func oracleAnswer(t *testing.T, l *lock.Locked, in []bool) []bool {
	t.Helper()
	out, err := l.Circuit.Eval(in, l.Key)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randomIO(t *testing.T, l *lock.Locked, rng *rand.Rand, n int) []ioPair {
	t.Helper()
	pairs := make([]ioPair, n)
	for i := range pairs {
		in := randomKey(rng, l.Circuit.NumInputs())
		pairs[i] = ioPair{in, oracleAnswer(t, l, in)}
	}
	return pairs
}

func constrainAll(t *testing.T, s *Session, pairs []ioPair) {
	t.Helper()
	for _, p := range pairs {
		if err := s.Constrain(p.in, p.out); err != nil {
			t.Fatal(err)
		}
	}
}

// consistent reports whether the locked circuit under key reproduces
// every constraint, by simulation.
func consistent(t *testing.T, c *netlist.Circuit, key []bool, pairs []ioPair) bool {
	t.Helper()
	for _, p := range pairs {
		got, err := c.Eval(p.in, key)
		if err != nil {
			t.Fatal(err)
		}
		for o := range got {
			if got[o] != p.out[o] {
				return false
			}
		}
	}
	return true
}

// sessionAccepts solves the session with both key copies assumed to key.
func sessionAccepts(t *testing.T, s *Session, key []bool) bool {
	t.Helper()
	e := s.e
	assume := e.keyAssumptions([]cnf.Lit{s.act}, key, key)
	switch e.solver.Solve(assume...) {
	case sat.Sat:
		return true
	case sat.Unsat:
		return false
	}
	t.Fatal("unbudgeted solve returned Unknown")
	return false
}

// verdict is what a session answers: FindDIP's and ExtractKey's
// statuses and the extracted key.
type verdict struct {
	find, extract sat.Status
	key           []bool
}

func (v verdict) String() string {
	return fmt.Sprintf("FindDIP %v, ExtractKey %v %v", v.find, v.extract, v.key)
}

func (v verdict) equal(w verdict) bool {
	return v.find == w.find && v.extract == w.extract && fmt.Sprint(v.key) == fmt.Sprint(w.key)
}

func sessionVerdict(t *testing.T, s *Session) verdict {
	t.Helper()
	_, find, err := s.FindDIP()
	if err != nil {
		t.Fatal(err)
	}
	key, extract, err := s.ExtractKey()
	if err != nil {
		t.Fatal(err)
	}
	return verdict{find, extract, key}
}

// freshVerdict constrains a session on a new engine with pairs.
func freshVerdict(t *testing.T, c *netlist.Circuit, pairs []ioPair) verdict {
	t.Helper()
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	constrainAll(t, s, pairs)
	return sessionVerdict(t, s)
}

// TestConstrainWidthErrors: input and output vectors of the wrong width
// are typed errors, never a panic or a silent truncation.
func TestConstrainWidthErrors(t *testing.T) {
	l := smallInstance(t, lock.Schemes()[0], 3)
	e, err := New(l.Circuit, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := make([]bool, l.Circuit.NumInputs())
	out := make([]bool, l.Circuit.NumOutputs())
	cases := []struct {
		name    string
		in, out []bool
		port    string
	}{
		{"short input", in[1:], out, "input"},
		{"long input", append(in, false), out, "input"},
		{"short output", in, out[1:], "output"},
		{"long output", in, append(out, true), "output"},
	}
	for _, tc := range cases {
		err := s.Constrain(tc.in, tc.out)
		var we *WidthError
		if !errors.As(err, &we) {
			t.Fatalf("%s: error %v, want a *WidthError", tc.name, err)
		}
		if we.Port != tc.port {
			t.Fatalf("%s: WidthError on port %q, want %q", tc.name, we.Port, tc.port)
		}
	}
	if got := e.Stats().BlockingPushed; got != 0 {
		t.Fatalf("rejected constraints pushed %d clauses", got)
	}
}

// TestSessionMatchesBruteForce holds the folded per-DIP constraints to
// brute-force simulation on every registry scheme whose key fits 12
// bits: after random (input, host(input)) constraints the session
// accepts a key exactly when simulation finds it consistent with all
// of them, and ExtractKey returns the smallest such key. A constraint
// no key can meet makes FindDIP and ExtractKey Unsat, never a key.
func TestSessionMatchesBruteForce(t *testing.T) {
	covered := 0
	for _, sch := range lock.Schemes() {
		for seed := int64(1); seed <= 2; seed++ {
			l := smallInstance(t, sch, seed*17)
			c := l.Circuit
			nk := c.NumKeys()
			if nk > 12 {
				continue
			}
			covered++
			label := fmt.Sprintf("%s/seed%d", sch.Name, seed)
			rng := rand.New(rand.NewSource(seed))
			pairs := randomIO(t, l, rng, 2+rng.Intn(5))
			e, err := New(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := e.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			constrainAll(t, s, pairs)
			var lexMin []bool
			for k := uint64(0); k < 1<<uint(nk); k++ {
				key := netlist.PatternFromUint(k, nk)
				want := consistent(t, c, key, pairs)
				if got := sessionAccepts(t, s, key); got != want {
					t.Fatalf("%s: key %v: session accepts %v, simulation %v", label, key, got, want)
				}
				if want && (lexMin == nil || lexLess(key, lexMin)) {
					lexMin = key
				}
			}
			key, st, err := s.ExtractKey()
			if err != nil || st != sat.Sat {
				t.Fatalf("%s: ExtractKey %v %v", label, st, err)
			}
			if fmt.Sprint(key) != fmt.Sprint(lexMin) {
				t.Fatalf("%s: ExtractKey %v, brute-force lex-min %v", label, key, lexMin)
			}
			s.Close()

			// A wrong answer on the last constraint's input.
			bad := impossibleAnswer(t, c, pairs[len(pairs)-1].in)
			s, err = e.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			constrainAll(t, s, append(pairs, bad...))
			if v := sessionVerdict(t, s); v.find != sat.Unsat || v.extract != sat.Unsat || v.key != nil {
				t.Fatalf("%s: after an impossible answer: %v, want Unsat twice and no key", label, v)
			}
			s.Close()
		}
	}
	if covered == 0 {
		t.Fatal("no registry scheme fits a 12-bit key on the small hosts")
	}
}

// lexLess orders keys the way ExtractKey canonicalizes: bit 0 first,
// false before true.
func lexLess(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return !a[i]
		}
	}
	return false
}

// impossibleAnswer returns constraints on in that no key meets: an
// output vector one bit away from some key's answer that no key
// produces — an output no key reaches, flipped, is one — or, when every
// such vector is reachable, two contradictory answers.
func impossibleAnswer(t *testing.T, c *netlist.Circuit, in []bool) []ioPair {
	t.Helper()
	nk := c.NumKeys()
	reachable := make(map[string]bool)
	var some []bool
	for k := uint64(0); k < 1<<uint(nk); k++ {
		out, err := c.Eval(in, netlist.PatternFromUint(k, nk))
		if err != nil {
			t.Fatal(err)
		}
		reachable[fmt.Sprint(out)] = true
		some = out
	}
	for o := range some {
		flip := append([]bool(nil), some...)
		flip[o] = !flip[o]
		if !reachable[fmt.Sprint(flip)] {
			return []ioPair{{in, flip}}
		}
	}
	flip := append([]bool(nil), some...)
	flip[0] = !flip[0]
	return []ioPair{{in, some}, {in, flip}}
}

// TestSessionScopeLifetime runs two sessions on one engine: the second
// re-constrains DIPs the first already encoded, plus new ones, and must
// answer exactly as a fresh engine does. Encoder state that outlives its
// scope — a gate table whose defining clauses Close retired — would
// hand the repeated DIPs unconstrained variables and fail this test.
func TestSessionScopeLifetime(t *testing.T) {
	sch, _ := lock.SchemeByName("rll")
	l := smallInstance(t, sch, 5)
	c := l.Circuit
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Session 1: the SAT attack to completion.
	s1, err := e.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	var dips []ioPair
	for {
		dip, st, err := s1.FindDIP()
		if err != nil {
			t.Fatal(err)
		}
		if st == sat.Unsat {
			break
		}
		p := ioPair{dip, oracleAnswer(t, l, dip)}
		dips = append(dips, p)
		if err := s1.Constrain(p.in, p.out); err != nil {
			t.Fatal(err)
		}
	}
	first := sessionVerdict(t, s1)
	s1.Close()
	if len(dips) < 2 {
		t.Fatalf("session 1 needed %d DIPs; the overlap below needs at least 2", len(dips))
	}
	if want := freshVerdict(t, c, dips); !first.equal(want) {
		t.Fatalf("session 1: %v, fresh engine: %v", first, want)
	}

	// Session 2: half of session 1's DIPs and new ones, then the rest.
	rng := rand.New(rand.NewSource(8))
	half := append(append([]ioPair(nil), dips[:len(dips)/2]...), randomIO(t, l, rng, 3)...)
	all := append(append([]ioPair(nil), half...), dips[len(dips)/2:]...)
	s2, err := e.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	constrainAll(t, s2, half)
	if got, want := sessionVerdict(t, s2), freshVerdict(t, c, half); !got.equal(want) {
		t.Fatalf("session 2 on overlapping and new DIPs: %v, fresh engine: %v", got, want)
	}
	constrainAll(t, s2, all[len(half):])
	got, want := sessionVerdict(t, s2), freshVerdict(t, c, all)
	if !got.equal(want) {
		t.Fatalf("session 2 on every DIP: %v, fresh engine: %v", got, want)
	}
	if want.find != sat.Unsat {
		t.Fatalf("fresh engine on session 1's DIPs: %v, want FindDIP Unsat", want)
	}
}

// TestHashedMiterDifferential checks the engine's hashed free-key
// miter against the plain-encoder miter (miter.NewKeyDiff through
// cnf.EncodeInto) and exhaustive simulation on every registry scheme:
// on random key pairs, Distinguish must reach the same verdict with a
// genuine witness, and EnumerateWitnesses must yield exactly the
// disagreement set, which the plain miter's enumeration matches too.
func TestHashedMiterDifferential(t *testing.T) {
	var equivalent, differing int
	for _, sch := range lock.Schemes() {
		l := smallInstance(t, sch, 29)
		c := l.Circuit
		e, err := New(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		nk := c.NumKeys()
		pairs := [][2][]bool{{l.Key, l.Key}, {l.Key, randomKey(rng, nk)}}
		for i := 0; i < 3; i++ {
			pairs = append(pairs, [2][]bool{randomKey(rng, nk), randomKey(rng, nk)})
		}
		for i, p := range pairs {
			label := fmt.Sprintf("%s/pair%d", sch.Name, i)
			want := bruteDIPs(t, c, p[0], p[1])
			w, eq, err := e.Distinguish(p[0], p[1], 0)
			if err != nil {
				t.Fatal(err)
			}
			if eq != (len(want) == 0) {
				t.Fatalf("%s: Distinguish equivalent=%v, simulation finds %d witnesses", label, eq, len(want))
			}
			if !eq && !want[netlist.UintFromPattern(w)] {
				t.Fatalf("%s: witness %v does not distinguish the keys", label, w)
			}
			if eq {
				equivalent++
			} else {
				differing++
			}
			got := make(map[uint64]bool)
			err = e.EnumerateWitnesses(p[0], p[1], func(pat []bool) bool {
				got[netlist.UintFromPattern(pat)] = true
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			plain := plainWitnesses(t, c, p[0], p[1])
			if len(got) != len(want) || len(plain) != len(want) {
				t.Fatalf("%s: %d hashed and %d plain witnesses, simulation finds %d", label, len(got), len(plain), len(want))
			}
			for pat := range want {
				if !got[pat] || !plain[pat] {
					t.Fatalf("%s: witness %b missing (hashed %v, plain %v)", label, pat, got[pat], plain[pat])
				}
			}
		}
	}
	if equivalent == 0 || differing == 0 {
		t.Fatalf("%d equivalent and %d differing pairs, want both", equivalent, differing)
	}
}

// plainWitnesses enumerates the disagreement inputs of two keys on the
// plain Tseitin encoding of miter.NewKeyDiff, with blocking clauses.
func plainWitnesses(t *testing.T, c *netlist.Circuit, keyA, keyB []bool) map[uint64]bool {
	t.Helper()
	kd, err := miter.NewKeyDiff(c)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	enc, err := cnf.EncodeInto(kd.Circuit, s)
	if err != nil {
		t.Fatal(err)
	}
	keys := enc.KeyLits(kd.Circuit)
	assume := []cnf.Lit{enc.OutputLits(kd.Circuit)[0]}
	for i, b := range append(append([]bool(nil), keyA...), keyB...) {
		assume = append(assume, signLit(keys[i], b))
	}
	inputs := enc.InputLits(kd.Circuit)
	out := make(map[uint64]bool)
	for s.Solve(assume...) == sat.Sat {
		pat := make([]bool, len(inputs))
		block := make([]cnf.Lit, len(inputs))
		for i, l := range inputs {
			pat[i] = s.ModelValue(l)
			block[i] = signLit(l, !pat[i])
		}
		out[netlist.UintFromPattern(pat)] = true
		s.Add(block...)
	}
	return out
}

// TestConstrainFoldedContradiction: with the DIP's inputs folded in, an
// output no key reaches is a constant; an oracle answer contrary to it
// adds the guarded empty clause, so the session goes Unsat instead of
// failing, and the next session is unaffected.
func TestConstrainFoldedContradiction(t *testing.T) {
	c := netlist.New("fold")
	a, b := c.MustAddInput("a"), c.MustAddInput("b")
	k := c.MustAddKey("k")
	for _, g := range []netlist.ID{
		c.MustAddGate(netlist.And, "plain", a, b),
		c.MustAddGate(netlist.Xor, "keyed", a, k),
	} {
		if err := c.MarkOutput(g); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	// AND(1,1) folds to true; the answer says 0.
	if err := s.Constrain([]bool{true, true}, []bool{false, false}); err != nil {
		t.Fatal(err)
	}
	if v := sessionVerdict(t, s); v.find != sat.Unsat || v.extract != sat.Unsat || v.key != nil {
		t.Fatalf("contradicted constant output: %v, want Unsat twice and no key", v)
	}
	s.Close()
	s, err = e.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Constrain([]bool{true, true}, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	if v := sessionVerdict(t, s); v.find != sat.Unsat || v.extract != sat.Sat || fmt.Sprint(v.key) != "[true]" {
		t.Fatalf("next session: %v, want FindDIP Unsat and key [true]", v)
	}
}
