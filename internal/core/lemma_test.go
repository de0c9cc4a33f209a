package core

import (
	"math/rand"
	"testing"

	"repro/internal/lock"
)

func TestMaxDIPsKnownConfigs(t *testing.T) {
	cases := map[string]uint64{
		// Table I configurations and the paper's printed DIP counts
		// (12 809 corrects the paper's 12 089 digit transposition; the
		// OR-terminated 14A-O is handled in Case 2 where the structured
		// count is computed on the dual chain — see EXPERIMENTS.md).
		"A-O-2A-O-2A-O-2A-O-2A-O-A": 18725,
		"2A-O-5A-O-2A-2O-2A":        12809,
		"O-6A-O-5A-O-A":             16643,
		"3A-2O-3A-2O-3A-O-A":        17969,
		"2A-O-2(4A-O)-2(2A-O)-12A":  598281,
		"4A-O-3(5A-O)-8A":           8521761,
		// The paper prints "2A-O-9A-O-4A-O-3A-O-9A" next to 2 367 497,
		// but that config yields 4 464 649; the printed count matches the
		// chain below (a one-gate shift in the fourth segment).
		"2A-O-9A-O-4A-O-2A-O-10A": 2367497,
		// Degenerate cases.
		"5A":  1, // Anti-SAT: one DIP
		"A-O": 5, // OR at gate 1 → 1 + 2^2
	}
	for s, want := range cases {
		chain := lock.MustParseChain(s)
		if got := MaxDIPs(chain); got != want {
			t.Errorf("MaxDIPs(%s) = %d, want %d", s, got, want)
		}
	}
}

func TestMaxDIPsAlwaysOdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		chain := make(lock.ChainConfig, n-1)
		for i := range chain {
			if rng.Intn(2) == 0 {
				chain[i] = lock.ChainOr
			}
		}
		if MaxDIPs(chain)%2 != 1 {
			t.Fatalf("even DIP count for %s", chain)
		}
	}
}

func TestChainFromDIPCountRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(14)
		chain := make(lock.ChainConfig, n-1)
		for i := range chain {
			// Keep the terminator AND: the reduced space always is.
			if i < n-2 && rng.Intn(2) == 0 {
				chain[i] = lock.ChainOr
			}
		}
		back, err := ChainFromDIPCount(MaxDIPs(chain), n)
		if err != nil {
			t.Fatalf("%s: %v", chain, err)
		}
		if !back.Equal(chain) {
			t.Fatalf("%s round-trips to %s", chain, back)
		}
	}
}

func TestChainFromDIPCountErrors(t *testing.T) {
	if _, err := ChainFromDIPCount(4, 4); err == nil {
		t.Error("even count accepted")
	}
	if _, err := ChainFromDIPCount(0, 4); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := ChainFromDIPCount(1<<5, 4); err == nil {
		t.Error("oversized count accepted")
	}
	if _, err := ChainFromDIPCount(3, 1); err == nil {
		t.Error("tiny block accepted")
	}
}

func TestNonControllingPattern(t *testing.T) {
	// A-O-A: bit0 = 1 (always), bit1 = 1 (gate0 AND), bit2 = 0 (gate1
	// OR), bit3 = 1 (gate2 AND).
	if got := NonControllingPattern(lock.MustParseChain("A-O-A")); got != 0b1011 {
		t.Errorf("w_nc(A-O-A) = %04b", got)
	}
	// O-A: bit0 = 1, bit1 = 0 (gate0 OR), bit2 = 1.
	if got := NonControllingPattern(lock.MustParseChain("O-A")); got != 0b101 {
		t.Errorf("w_nc(O-A) = %03b", got)
	}
}

// TestOnePointsMatchChainFunction is the load-bearing structural check:
// OnePoints must be exactly the 1-points of the AND-terminated chain
// function, for random chains, verified by direct evaluation.
func TestOnePointsMatchChainFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(11)
		chain := make(lock.ChainConfig, n-1)
		for i := range chain {
			if i < n-2 && rng.Intn(2) == 0 {
				chain[i] = lock.ChainOr
			}
		}
		want := map[uint64]bool{}
		for v := uint64(0); v < 1<<uint(n); v++ {
			if evalChain(chain, v) {
				want[v] = true
			}
		}
		got := OnePoints(chain)
		if uint64(len(got)) != MaxDIPs(chain) {
			t.Fatalf("%s: OnePoints size %d != MaxDIPs %d", chain, len(got), MaxDIPs(chain))
		}
		seen := map[uint64]bool{}
		for _, w := range got {
			if seen[w] {
				t.Fatalf("%s: duplicate one-point %b", chain, w)
			}
			seen[w] = true
			if !want[w] {
				t.Fatalf("%s: %b is not a 1-point", chain, w)
			}
		}
		if len(seen) != len(want) {
			t.Fatalf("%s: %d one-points enumerated, %d exist", chain, len(seen), len(want))
		}
	}
}

// evalChain evaluates the plain chain function (no key gates).
func evalChain(chain lock.ChainConfig, v uint64) bool {
	acc := v&1 != 0
	for j, g := range chain {
		in := v&(1<<uint(j+1)) != 0
		if g == lock.ChainAnd {
			acc = acc && in
		} else {
			acc = acc || in
		}
	}
	return acc
}

// TestOnePointSetMatchesEnumeration checks the closed-form membership
// test against the enumerated set: for every AND-terminated chain with
// n ≤ 12, has(x) must equal x ∈ OnePoints on all 2^n patterns.
func TestOnePointSetMatchesEnumeration(t *testing.T) {
	for n := 2; n <= 12; n++ {
		for ors := uint64(0); ors < 1<<uint(n-2); ors++ {
			chain := make(lock.ChainConfig, n-1)
			for i := 0; i < n-2; i++ {
				if ors&(1<<uint(i)) != 0 {
					chain[i] = lock.ChainOr
				}
			}
			in := make([]bool, 1<<uint(n))
			for _, w := range OnePoints(chain) {
				in[w] = true
			}
			w := newOnePointSet(chain)
			for x := range in {
				if w.has(uint64(x)) != in[x] {
					t.Fatalf("%s: has(%0*b) = %v, enumeration says %v", chain, n, x, !in[x], in[x])
				}
			}
		}
	}
}
