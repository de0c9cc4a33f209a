package core

import (
	"errors"
	"fmt"

	"repro/internal/lock"
	"repro/internal/netlist"
)

// ErrLemma2 classifies decode failures where the extracted DIP set does
// not carry the popcount structure Lemma 2 guarantees for a genuine
// CAS-Lock instance: the structured-class size must be odd, its binary
// representation must name valid OR-gate positions, and the class must
// equal the recovered chain's one-point set up to a shift. A clean
// extraction on a real instance can only fail these checks under a
// wrong hypothesis; a run that fails them under BOTH hypotheses is
// looking at corrupted data.
var ErrLemma2 = errors.New("core: DIP set inconsistent with Lemma 2")

// ErrOracleInconsistent reports the complementary diagnosis: the DIP
// structure passed every Lemma-2 check (so the locked netlist is a
// well-formed CAS instance and the decode is trustworthy) yet no
// candidate key survived oracle adjudication. Candidates are only ever
// eliminated on a concrete oracle disagreement, and the true key is
// always among the candidates of a consistent decode — so this outcome
// means the oracle's answers are self-inconsistent: a noisy or faulty
// activated chip. Retrying through a denoising oracle (the majority vote
// of oracle.Resilient) is the remedy; emitting a key is not.
var ErrOracleInconsistent = errors.New("core: oracle disagreements eliminated every candidate of a Lemma-2-consistent DIP structure (noisy oracle?)")

// ErrPartial classifies interrupted attacks: errors.Is(err, ErrPartial)
// holds exactly when err carries a *PartialError with the partially
// recovered structure.
var ErrPartial = errors.New("core: attack interrupted before key recovery")

// ErrBlockWidth classifies width-validation failures: a block width
// outside the range this package can represent (see MaxBlockWidth).
// Admission boundaries — the attack service in particular — match on it
// to reject malformed or oversized instances before any work is queued.
var ErrBlockWidth = errors.New("core: block width outside supported range")

// ErrResumeMismatch classifies resume refusals: the checkpoint snapshot
// passed to Options.ResumeFrom was taken from a different attack — a
// different locked netlist (bench.Hash mismatch), different
// semantics options, or a different block width. Resuming anyway would
// silently blend two instances' progress, so the attack refuses before
// touching the oracle.
var ErrResumeMismatch = errors.New("core: checkpoint does not match this attack instance")

// PanicError is a panic converted into an error by RunSafe (or any
// other panic-to-error boundary): long-running callers — the attack
// daemon above all — must not die because one malformed netlist drove
// an internal invariant (such as DIPSet.Add's universe check) into a
// panic. Value is the recovered panic value; Stack the goroutine stack
// captured at recovery.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: attack panicked: %v", e.Value)
}

// PartialError is the graceful-degradation result: the attack ran out
// of deadline or budget (or the oracle failed permanently) after
// recovering part of the structure. Everything learned up to the
// interruption is preserved so a caller can resume, report, or widen
// the budget instead of rerunning from scratch.
type PartialError struct {
	// Stage names the pipeline stage that was interrupted: "extract",
	// "decode", "calibrate" or "verify".
	Stage string
	// Case is the block-role hypothesis in progress (1 or 2; 0 when the
	// interruption predates the hypothesis loop).
	Case int
	// Chain is the decoded cascade configuration, nil if the decode
	// stage was not reached.
	Chain lock.ChainConfig
	// KeyGates is the recovered key-gate polarity vector of the active
	// block (exact up to the inherent complement), nil if not reached.
	KeyGates []netlist.GateType
	// DIPs counts the distinguishing input patterns enumerated before
	// the interruption (a lower bound on |I_l|).
	DIPs uint64
	// Extractions counts DIP-set extractions performed.
	Extractions int
	// Err is the underlying cause: context.DeadlineExceeded,
	// context.Canceled, a budget-exhaustion error, or a permanent
	// oracle failure.
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	msg := fmt.Sprintf("core: attack interrupted during %s (case=%d, %d DIPs so far", e.Stage, e.Case, e.DIPs)
	if e.Chain != nil {
		msg += fmt.Sprintf(", chain=%s", e.Chain)
	}
	return msg + "): " + e.Err.Error()
}

// Unwrap exposes ErrPartial for classification plus the concrete cause.
func (e *PartialError) Unwrap() []error { return []error{ErrPartial, e.Err} }

// partial builds a PartialError from the attack's current progress.
func (a *attack) partial(stage string, active int, st *structured, err error) *PartialError {
	pe := &PartialError{Stage: stage, Case: active, Extractions: a.ext.Extractions(), Err: err}
	if st != nil {
		pe.Chain = st.chainH
		pe.DIPs = st.total
		pe.KeyGates = kgFromMask(st.s&blockMask(a.layout.N()), a.layout.N())
	}
	return pe
}
