// Package attack is the attack registry: every attack this repository
// mounts against a locked netlist, addressable by a flag-friendly name,
// with a uniform Run contract over a shared mount Context. The
// experiment matrix, the CLIs and the service column-enumerate this
// registry instead of hard-coding attack switches, so adding an attack
// is one RegisterAttack call — the registry twin of the scheme registry
// in internal/lock.
//
// Verification semantics: an Outcome is Broken only when the attack's
// product is proven functionally — a recovered key must SAT-prove the
// unlocked circuit equivalent to the reference design, and a rebuilt
// circuit must SAT-prove equivalent outright. Golden-key comparison is
// deliberately absent: CAS-Lock admits 2^N correct keys and even RLL
// instances can admit several functional keys, so "is it the key we
// inserted" is the wrong question (see PAPERS.md, "On the One-Key
// Premise of Logic Locking"). The scheme's KeyCheck predicate serves as
// a cross-check annotation, not a veto — see Context.Verified.
package attack

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/attack/appsat"
	"repro/internal/attack/bypass"
	"repro/internal/attack/casunlock"
	"repro/internal/attack/satattack"
	"repro/internal/attack/sps"
	"repro/internal/core"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// Context is one attack mount: the locked instance, oracle access, the
// reference design for equivalence proofs, and the shared budget /
// plumbing knobs. Attacks read what they need and ignore the rest.
type Context struct {
	// Ctx bounds the mount; nil means context.Background().
	Ctx context.Context
	// Locked is the locked netlist under attack.
	Locked *netlist.Circuit
	// Host is the original design, used only to SAT-prove breaks.
	Host *netlist.Circuit
	// KeyCheck, when non-nil, is the scheme's ground-truth predicate
	// accepting any functional key (see lock.Scheme). It sharpens the
	// break verdict; equivalence proving still runs either way.
	KeyCheck func(key []bool) bool
	// MCAS routes the DIP-learning attack through its Mirrored-CAS
	// pipeline.
	MCAS bool
	// NewOracle builds a fresh oracle for the mount (decorated with
	// faults/resilience by the caller as desired).
	NewOracle func() oracle.Oracle
	// SATCap bounds SAT/AppSAT DIP iterations.
	SATCap int
	// Seed drives the attack's own sampling.
	Seed int64
	// Telemetry instruments the mount (attack_*/engine_* families).
	Telemetry *telemetry.Registry
	// SATWidthLimit pins the DIP-learning SAT/sim regime boundary.
	SATWidthLimit int
}

func (c *Context) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// Prove SAT-proves that key unlocks the locked circuit into the host.
func (c *Context) Prove(key []bool) bool {
	ok, err := miter.ProveUnlockedHashed(c.Locked, key, c.Host)
	return err == nil && ok
}

// Verified is the break criterion for a recovered key: the SAT
// equivalence proof, which is sound and complete, is the sole judge.
// The scheme's KeyCheck deliberately does not get a veto — for schemes
// carrying a golden-equality check, attacks routinely recover a
// *different* functional key (lex-min extraction makes this the common
// case), and rejecting a proven break over key identity would repeat
// the one-key fallacy the scheme registry documents.
func (c *Context) Verified(key []bool) bool {
	return c.Prove(key)
}

// KeyNote annotates a proven break with the KeyCheck cross-check: empty
// when the scheme predicate agrees, a marker when the recovered key is
// functional but not one the predicate recognizes (a multi-key datum).
func (c *Context) KeyNote(key []bool) string {
	if c.KeyCheck != nil && !c.KeyCheck(key) {
		return ", non-golden key"
	}
	return ""
}

// Outcome is one attack mount's result. Attack errors are folded into
// Detail (an attack failing is a matrix datum, not an infrastructure
// error).
type Outcome struct {
	// Broken means the attack produced a proven functional break.
	Broken bool
	// Detail is a short human-readable outcome.
	Detail string
	// Key is the recovered key, when the attack produces one.
	Key []bool
}

// Attack is one registered attack.
type Attack struct {
	// Name is the stable flag/API identifier (lower-case, no spaces).
	Name string
	// Label is the display name used as a matrix column header.
	Label string
	// Description is a one-line summary for -list output.
	Description string
	// Servable marks attacks the long-running service accepts as jobs
	// (currently the checkpointable DIP-learning pipeline only).
	Servable bool
	// Run mounts the attack.
	Run func(c *Context) Outcome
}

var attackReg = struct {
	sync.RWMutex
	order  []string
	byName map[string]Attack
}{byName: make(map[string]Attack)}

// RegisterAttack adds an attack to the registry. Names and labels are
// matched case-insensitively by AttackByName; duplicates are rejected.
func RegisterAttack(a Attack) error {
	if a.Name == "" || a.Run == nil {
		return fmt.Errorf("attack: an attack needs a name and a Run function")
	}
	if a.Label == "" {
		a.Label = a.Name
	}
	key := strings.ToLower(a.Name)
	attackReg.Lock()
	defer attackReg.Unlock()
	if _, dup := attackReg.byName[key]; dup {
		return fmt.Errorf("attack: attack %q already registered", a.Name)
	}
	attackReg.byName[key] = a
	attackReg.order = append(attackReg.order, key)
	return nil
}

// MustRegisterAttack is RegisterAttack, panicking on error — for
// package-init registration of built-ins.
func MustRegisterAttack(a Attack) {
	if err := RegisterAttack(a); err != nil {
		panic(err)
	}
}

// Attacks returns every registered attack in registration order.
func Attacks() []Attack {
	attackReg.RLock()
	defer attackReg.RUnlock()
	out := make([]Attack, 0, len(attackReg.order))
	for _, k := range attackReg.order {
		out = append(out, attackReg.byName[k])
	}
	return out
}

// Labels returns the display labels in registration order — the matrix
// column order.
func Labels() []string {
	as := Attacks()
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Label
	}
	return out
}

// Names returns the stable flag names in registration order.
func Names() []string {
	as := Attacks()
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

// AttackByName resolves an attack by Name or Label, case-insensitively.
func AttackByName(name string) (Attack, bool) {
	key := strings.ToLower(name)
	attackReg.RLock()
	defer attackReg.RUnlock()
	if a, ok := attackReg.byName[key]; ok {
		return a, true
	}
	for _, a := range attackReg.byName {
		if strings.EqualFold(a.Label, name) {
			return a, true
		}
	}
	return Attack{}, false
}

// Universe renders the valid attack names for error messages, sorted.
func Universe() string {
	names := Names()
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func trimErr(err error) string {
	s := err.Error()
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

func init() {
	MustRegisterAttack(Attack{
		Name:        "sat",
		Label:       "SAT",
		Description: "oracle-guided SAT attack (Subramanyan et al., HOST 2015)",
		Run: func(c *Context) Outcome {
			res, err := satattack.Run(c.Locked, c.NewOracle(), satattack.Options{
				MaxIterations: c.SATCap, Context: c.Ctx, Telemetry: c.Telemetry,
			})
			if err != nil {
				return Outcome{Detail: "error: " + trimErr(err)}
			}
			if res.Completed && c.Verified(res.Key) {
				return Outcome{Broken: true, Key: res.Key,
					Detail: fmt.Sprintf("exact key, %d iters%s", res.Iterations, c.KeyNote(res.Key))}
			}
			return Outcome{Detail: fmt.Sprintf("capped at %d iters", res.Iterations)}
		},
	})
	MustRegisterAttack(Attack{
		Name:        "appsat",
		Label:       "AppSAT",
		Description: "approximate SAT attack with sampling rounds (Shamsi et al., HOST 2017)",
		Run: func(c *Context) Outcome {
			res, err := appsat.Run(c.Locked, c.NewOracle(), appsat.Options{
				Seed: c.Seed, MaxIterations: c.SATCap,
				Context: c.Ctx, Telemetry: c.Telemetry,
			})
			if err != nil {
				return Outcome{Detail: "error: " + trimErr(err)}
			}
			if c.Verified(res.Key) {
				return Outcome{Broken: true, Key: res.Key,
					Detail: fmt.Sprintf("exact key, %d iters%s", res.Iterations, c.KeyNote(res.Key))}
			}
			return Outcome{Detail: fmt.Sprintf("approximate key (err≈%.3f)", res.ErrorEstimate)}
		},
	})
	MustRegisterAttack(Attack{
		Name:        "casunlock",
		Label:       "CAS-Unlock",
		Description: "uniform-key probing (CAS-Unlock); breaks mirrored nests, fails on mixed polarities",
		Run: func(c *Context) Outcome {
			res, err := casunlock.Run(c.Locked, c.NewOracle(), 300, c.Seed)
			if err != nil {
				return Outcome{Detail: "n/a: " + trimErr(err)}
			}
			if res.Succeeded && c.Verified(res.Key) {
				return Outcome{Broken: true, Key: res.Key, Detail: "uniform key works" + c.KeyNote(res.Key)}
			}
			return Outcome{Detail: "uniform keys fail"}
		},
	})
	MustRegisterAttack(Attack{
		Name:        "sps-removal",
		Label:       "SPS-removal",
		Description: "signal-probability-skew flip-gate removal (SPS/AppSAT-removal family)",
		Run: func(c *Context) Outcome {
			res, err := sps.RemoveOuterFlip(c.Locked, 0.05)
			if err != nil {
				return Outcome{Detail: "no skewed flip target"}
			}
			if res.Circuit.NumKeys() == 0 {
				eq, _, err := miter.ProveEquivalentHashed(res.Circuit, c.Host)
				if err == nil && eq {
					return Outcome{Broken: true, Detail: "flip removed, design recovered"}
				}
				return Outcome{Detail: "removal left a faulty circuit"}
			}
			return Outcome{Detail: fmt.Sprintf("outer stripped, %d keys remain locked", res.Circuit.NumKeys())}
		},
	})
	MustRegisterAttack(Attack{
		Name:        "bypass",
		Label:       "bypass",
		Description: "wrong-key bypass synthesis (Xu et al., CHES 2017) under a comparator budget",
		Run: func(c *Context) Outcome {
			// An area budget of 192 comparator fixes models the published
			// attack's practicality envelope: plenty for one-point
			// functions, far below CAS-Lock's DIP count. The CAS-aware
			// extractor is tried first; other schemes go through the
			// generic SAT-miter form of the attack.
			const fixBudget = 192
			opts := bypass.Options{MaxFixes: fixBudget, Seed: c.Seed, Context: c.Ctx, Telemetry: c.Telemetry}
			res, err := bypass.Run(c.Locked, c.NewOracle(), opts)
			if err != nil {
				res, err = bypass.RunGenericOpts(c.Locked, c.NewOracle(), opts)
			}
			if err != nil {
				return Outcome{Detail: "infeasible: " + trimErr(err)}
			}
			eq, _, perr := miter.ProveEquivalentHashed(res.Circuit, c.Host)
			if perr == nil && eq {
				return Outcome{Broken: true,
					Detail: fmt.Sprintf("%d fixes, +%d gates", res.Fixes, res.OverheadGates)}
			}
			return Outcome{Detail: "bypass circuit incorrect"}
		},
	})
	MustRegisterAttack(Attack{
		Name:        "dip",
		Label:       "DIP-learning",
		Description: "the paper's DIP-learning attack on CAS-Lock / Mirrored CAS",
		Servable:    true,
		Run: func(c *Context) Outcome {
			opts := core.Options{
				Context: c.context(), Seed: c.Seed,
				Telemetry: c.Telemetry, SATWidthLimit: c.SATWidthLimit,
			}
			if c.MCAS {
				res, err := core.RunMCAS(c.Locked, c.NewOracle(), opts)
				if err != nil {
					return Outcome{Detail: "failed: " + trimErr(err)}
				}
				if c.Verified(res.Key) {
					return Outcome{Broken: true, Key: res.Key,
						Detail: fmt.Sprintf("exact key, %d DIPs%s", res.Inner.TotalDIPs, c.KeyNote(res.Key))}
				}
				return Outcome{Detail: "wrong key"}
			}
			opts.Locked = c.Locked
			opts.Oracle = c.NewOracle()
			res, err := core.Run(opts)
			if err != nil {
				return Outcome{Detail: "n/a: " + trimErr(err)}
			}
			if c.Verified(res.Key) {
				return Outcome{Broken: true, Key: res.Key,
					Detail: fmt.Sprintf("exact key, %d DIPs%s", res.TotalDIPs, c.KeyNote(res.Key))}
			}
			return Outcome{Detail: "wrong key"}
		},
	})
}
