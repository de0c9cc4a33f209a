package lock

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/netlist"
)

// The scheme registry: every locking scheme this repository implements,
// addressable by a flag-friendly name, with its default parameterization,
// host-width requirement, and — crucially — a KeyCheck that accepts any
// functional key rather than one golden key. "On the One-Key Premise of
// Logic Locking" (PAPERS.md) is the motivation: CAS-Lock admits 2^N
// correct keys (any pair of halves applying equal effective masks),
// Mirrored CAS admits every K_inner = K_outer pair, and an attack that
// recovers any of them has broken the scheme, so the harnesses must not
// compare against the canonical key. Experiment matrices, the CLIs and
// the service all enumerate this registry instead of hard-coding scheme
// lists, so adding a scheme is one RegisterScheme call.

// KeyCheck reports whether a key functionally unlocks the instance it
// was issued for. Implementations accept every correct key the scheme
// admits: for multi-key schemes (CAS, Anti-SAT, M-CAS) this is the
// ground-truth mask/mirror predicate; for schemes whose construction
// makes the key unique (RLL, SLL, SARLock, SFLL-HD — every wrong key
// provably corrupts some pattern) it degenerates to golden-key equality.
// Final break verification additionally SAT-proves circuit equivalence,
// so KeyCheck is a fast ground-truth cross-check, not the sole judge.
type KeyCheck func(key []bool) bool

// Scheme is one registered locking scheme with its default benchmark
// parameterization.
type Scheme struct {
	// Name is the stable flag/API identifier (lower-case, no spaces).
	Name string
	// Label is the display name used as a matrix row header.
	Label string
	// Description is a one-line summary for -list output.
	Description string
	// MinHostInputs is the smallest host primary-input count the default
	// parameters fit (CAS chains consume one host input per block bit).
	MinHostInputs int
	// MCAS marks mirrored-CAS key semantics: the DIP-learning attack
	// must route such instances through its M-CAS pipeline.
	MCAS bool
	// Apply locks a copy of the host with the scheme's default
	// parameters, seeded deterministically. The returned KeyCheck is
	// bound to the created instance (nil only if the scheme has no
	// ground-truth predicate beyond golden-key equality — Apply still
	// returns a non-nil check for every built-in).
	Apply func(host *netlist.Circuit, seed int64) (*Locked, KeyCheck, error)
}

var schemeReg = struct {
	sync.RWMutex
	order  []string
	byName map[string]Scheme
}{byName: make(map[string]Scheme)}

// RegisterScheme adds a scheme to the registry. Names and labels are
// matched case-insensitively by SchemeByName; duplicates are rejected.
func RegisterScheme(s Scheme) error {
	if s.Name == "" || s.Apply == nil {
		return fmt.Errorf("lock: scheme needs a name and an Apply constructor")
	}
	if s.Label == "" {
		s.Label = s.Name
	}
	key := strings.ToLower(s.Name)
	schemeReg.Lock()
	defer schemeReg.Unlock()
	if _, dup := schemeReg.byName[key]; dup {
		return fmt.Errorf("lock: scheme %q already registered", s.Name)
	}
	schemeReg.byName[key] = s
	schemeReg.order = append(schemeReg.order, key)
	return nil
}

// MustRegisterScheme is RegisterScheme, panicking on error — for
// package-init registration of built-ins.
func MustRegisterScheme(s Scheme) {
	if err := RegisterScheme(s); err != nil {
		panic(err)
	}
}

// Schemes returns every registered scheme in registration order.
func Schemes() []Scheme {
	schemeReg.RLock()
	defer schemeReg.RUnlock()
	out := make([]Scheme, 0, len(schemeReg.order))
	for _, k := range schemeReg.order {
		out = append(out, schemeReg.byName[k])
	}
	return out
}

// SchemeNames returns the stable flag names in registration order.
func SchemeNames() []string {
	ss := Schemes()
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}

// SchemeByName resolves a scheme by Name or Label, case-insensitively.
func SchemeByName(name string) (Scheme, bool) {
	key := strings.ToLower(name)
	schemeReg.RLock()
	defer schemeReg.RUnlock()
	if s, ok := schemeReg.byName[key]; ok {
		return s, true
	}
	for _, s := range schemeReg.byName {
		if strings.EqualFold(s.Label, name) {
			return s, true
		}
	}
	return Scheme{}, false
}

// SchemeUniverse renders the valid names for error messages, sorted.
func SchemeUniverse() string {
	names := SchemeNames()
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// goldenKeyCheck is the KeyCheck for schemes whose correct key is
// unique by construction.
func goldenKeyCheck(golden []bool) KeyCheck {
	g := append([]bool(nil), golden...)
	return func(key []bool) bool {
		if len(key) != len(g) {
			return false
		}
		for i := range g {
			if key[i] != g[i] {
				return false
			}
		}
		return true
	}
}

func init() {
	MustRegisterScheme(Scheme{
		Name:          "rll",
		Label:         "RLL",
		Description:   "random XOR/XNOR key-gate insertion (EPIC), 10 keys",
		MinHostInputs: 1,
		Apply: func(host *netlist.Circuit, seed int64) (*Locked, KeyCheck, error) {
			l, _, err := ApplyRLL(host, 10, seed)
			if err != nil {
				return nil, nil, err
			}
			return l, goldenKeyCheck(l.Key), nil
		},
	})
	MustRegisterScheme(Scheme{
		Name:          "antisat",
		Label:         "Anti-SAT",
		Description:   "Anti-SAT one-point flip block, n=10 (2^10 correct keys)",
		MinHostInputs: 10,
		Apply: func(host *netlist.Circuit, seed int64) (*Locked, KeyCheck, error) {
			l, inst, err := ApplyAntiSAT(host, 10, seed)
			if err != nil {
				return nil, nil, err
			}
			return l, inst.IsCorrectCASKey, nil
		},
	})
	MustRegisterScheme(Scheme{
		Name:          "sarlock",
		Label:         "SARLock",
		Description:   "SARLock comparator flip, n=10",
		MinHostInputs: 10,
		Apply: func(host *netlist.Circuit, seed int64) (*Locked, KeyCheck, error) {
			l, _, err := ApplySARLock(host, 10, seed)
			if err != nil {
				return nil, nil, err
			}
			return l, goldenKeyCheck(l.Key), nil
		},
	})
	MustRegisterScheme(Scheme{
		Name:          "sfll",
		Label:         "SFLL-HD",
		Description:   "SFLL-HD strip-and-restore, n=8 h=2",
		MinHostInputs: 8,
		Apply: func(host *netlist.Circuit, seed int64) (*Locked, KeyCheck, error) {
			l, _, err := ApplySFLLHD(host, 8, 2, seed)
			if err != nil {
				return nil, nil, err
			}
			return l, goldenKeyCheck(l.Key), nil
		},
	})
	MustRegisterScheme(Scheme{
		Name:          "cas",
		Label:         "CAS-Lock",
		Description:   "CAS-Lock cascade 2A-O-4A-O-2A (the paper's target; 2^11 correct keys)",
		MinHostInputs: MustParseChain("2A-O-4A-O-2A").NumInputs(),
		Apply: func(host *netlist.Circuit, seed int64) (*Locked, KeyCheck, error) {
			l, inst, err := ApplyCAS(host, CASOptions{Chain: MustParseChain("2A-O-4A-O-2A"), Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			return l, inst.IsCorrectCASKey, nil
		},
	})
	MustRegisterScheme(Scheme{
		Name:          "mcas",
		Label:         "M-CAS",
		Description:   "Mirrored CAS-Lock cascade 3A-O-A (flips cancel when K_in = K_out)",
		MinHostInputs: MustParseChain("3A-O-A").NumInputs(),
		MCAS:          true,
		Apply: func(host *netlist.Circuit, seed int64) (*Locked, KeyCheck, error) {
			l, inst, err := ApplyMCAS(host, CASOptions{Chain: MustParseChain("3A-O-A"), Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			return l, inst.IsCorrectMCASKey, nil
		},
	})
	MustRegisterScheme(Scheme{
		Name:          "sll",
		Label:         "SLL",
		Description:   "strong (interference-aware) key-gate insertion, 10 keys",
		MinHostInputs: 1,
		Apply: func(host *netlist.Circuit, seed int64) (*Locked, KeyCheck, error) {
			l, _, err := ApplySLL(host, 10, seed)
			if err != nil {
				return nil, nil, err
			}
			return l, goldenKeyCheck(l.Key), nil
		},
	})
}
