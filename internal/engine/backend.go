package engine

import (
	"context"

	"repro/internal/events"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/telemetry"
)

// Backend is the query surface the attack drives: one persistent
// *Engine, or a *Portfolio of diversified engines racing each call.
// Both keep the single-shared-encoding contract — a Backend encodes the
// key-differential miter at most once for its lifetime — and both
// produce bit-identical results for complete (non-deadline-partial)
// queries, which the differential tests enforce.
type Backend interface {
	SetContext(ctx context.Context)
	SetTelemetry(r *telemetry.Registry)
	SetEvents(b *events.Bus)
	SetPhase(name string)
	NumKeys() int
	BlockWidth() int
	Stats() sat.Stats
	PhaseStats() map[string]sat.Stats
	EnumerateDIPs(A, B []bool, visit func(pat uint64) bool) error
	EnumerateDIPsSeeded(A, B []bool, seed func(yield func(pat uint64) bool), visit func(pat uint64) bool) error
	// OpenSession starts a scoped free-key query window (SAT attack /
	// AppSAT shape); EnumerateWitnesses and EnumerateSensitizations are
	// the bypass and key-sensitization query shapes. See Engine for the
	// contracts; a Portfolio serves all three from its baseline member,
	// because these are sequential protocols whose later queries depend
	// on earlier models — racing would trade run-to-run determinism for
	// nothing (the member still enjoys clause persistence and imports).
	OpenSession() (*Session, error)
	EnumerateWitnesses(keyA, keyB []bool, visit func(pattern []bool) bool) error
	EnumerateSensitizations(bit int, visit func(pattern []bool) bool) error
	Distinguish(keyA, keyB []bool, budget uint64) (witness []bool, equivalent bool, err error)
	DistinguishEx(keyA, keyB []bool, budget uint64) (DistinguishOutcome, error)
	BudgetRate() float64
	SetBudgetRate(rate float64)
	SetCompactBytes(n uint64)
	Recycle()
}

var (
	_ Backend = (*Engine)(nil)
	_ Backend = (*Portfolio)(nil)
)

// Attach is the setup every classic attack shares: it returns be, or a
// fresh engine over locked when be is nil, bound to ctx and tel (each
// left as is when nil) and labelled with the attack's phase name.
func Attach(be Backend, locked *netlist.Circuit, ctx context.Context, tel *telemetry.Registry, phase string) (Backend, error) {
	if be == nil {
		eng, err := New(locked, nil)
		if err != nil {
			return nil, err
		}
		be = eng
	}
	if ctx != nil {
		be.SetContext(ctx)
	}
	if tel != nil {
		be.SetTelemetry(tel)
	}
	be.SetPhase(phase)
	return be, nil
}
