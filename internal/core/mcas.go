package core

import (
	"fmt"

	"repro/internal/attack/sps"
	"repro/internal/netlist"
	"repro/internal/oracle"
)

// spsRemove strips the outer CAS-Lock instance, traced as a parentless
// "sps_removal" span (it precedes the attack's root span).
func spsRemove(locked *netlist.Circuit, opts Options) (*sps.RemovalResult, error) {
	sp := opts.Telemetry.StartSpan("sps_removal")
	defer sp.End()
	return sps.RemoveOuterFlip(locked, 0.05)
}

// MCASResult reports the Mirrored CAS-Lock pipeline outcome.
type MCASResult struct {
	// Inner is the DIP-learning result against the stripped circuit.
	Inner *Result
	// Key is a correct key for the ORIGINAL M-CAS circuit
	// (K_inner || K_outer with the recovered inner key mirrored, which
	// unlocks M-CAS by the flip-cancellation property).
	Key []bool
	// RemovedFlipProb is the SPS probability of the removed outer flip.
	RemovedFlipProb float64
}

// RunMCAS attacks Mirrored CAS-Lock exactly along the paper's pathway:
// the outer CAS-Lock instance is stripped with the SPS-based removal
// attack [9], and the remaining (inner) instance falls to the
// DIP-learning attack. The mirrored copy of the recovered inner key then
// unlocks the original M-CAS circuit.
func RunMCAS(locked *netlist.Circuit, orc oracle.Oracle, opts Options) (*MCASResult, error) {
	removal, err := spsRemove(locked, opts)
	if err != nil {
		return nil, fmt.Errorf("core: SPS removal of the outer instance failed: %w", err)
	}
	stripped := removal.Circuit
	if stripped.NumKeys()*2 != locked.NumKeys() {
		return nil, fmt.Errorf("core: removal left %d keys, want half of %d", stripped.NumKeys(), locked.NumKeys())
	}
	inner := opts
	inner.Locked = stripped
	inner.Oracle = orc
	res, err := Run(inner)
	if err != nil {
		return nil, err
	}
	// Map the recovered key back to the original circuit's key order and
	// mirror it into the outer key: K_inner = K_outer unlocks M-CAS.
	full := make([]bool, locked.NumKeys())
	half := stripped.NumKeys()
	for i, orig := range removal.SurvivingKeys {
		full[orig] = res.Key[i]
	}
	for i, orig := range removal.SurvivingKeys {
		// The outer instance's keys occupy the non-surviving positions in
		// the same block order; for the standard M-CAS construction they
		// are the upper half, offset by the inner width.
		outerPos := orig + half
		if outerPos >= len(full) {
			return nil, fmt.Errorf("core: unexpected M-CAS key arrangement")
		}
		full[outerPos] = res.Key[i]
	}
	return &MCASResult{
		Inner:           res,
		Key:             full,
		RemovedFlipProb: removal.RemovedCandidate.Prob,
	}, nil
}
