package core

import (
	"fmt"
	"strconv"

	"repro/internal/bench"
	"repro/internal/checkpoint"
	"repro/internal/events"
)

// optionsSig fingerprints the options that change the attack's query
// stream or decisions; a snapshot is only resumable under identical
// semantics (mirrors the service cache key's options component).
func optionsSig(o *Options) string {
	return fmt.Sprintf("v3 seed=%d satwidth=%d", o.Seed, o.SATWidthLimit)
}

// ckptState is the attack-side half of checkpointing: the identity
// stamped into every snapshot plus the latest progress observed by the
// extraction hooks. All fields are owned by the attack goroutine; only
// fully built Snapshot values cross into the writer goroutine.
type ckptState struct {
	w          *checkpoint.Writer
	lockedHash string
	sig        string

	active   int
	calib    uint64
	set      *DIPSet
	complete bool
}

// armDurability wires Options.Checkpointer and Options.ResumeFrom into
// the attack: the resume snapshot is validated against this instance
// (typed refusal on mismatch) and held for the extraction it names, and
// the extractor's progress hook starts feeding the checkpoint cadence.
func (a *attack) armDurability() error {
	opts := &a.opts
	if opts.Checkpointer == nil && opts.ResumeFrom == nil {
		return nil
	}
	hash, err := bench.Hash(opts.Locked)
	if err != nil {
		return fmt.Errorf("core: hashing locked netlist for checkpointing: %w", err)
	}
	sig := optionsSig(opts)

	if rs := opts.ResumeFrom; rs != nil {
		sp := a.root.Child("resume")
		if err := validateResume(rs, hash, sig, a.layout.N()); err != nil {
			sp.SetArg("refused", err.Error())
			sp.End()
			return err
		}
		a.resume = rs
		a.env.Tel.Counter("resume_loads_total").Inc()
		sp.SetArg("active", strconv.Itoa(rs.Active))
		sp.SetArg("phase", rs.Phase)
		sp.SetArg("complete", strconv.FormatBool(rs.EnumComplete))
		sp.End()
		a.logf("resuming from checkpoint: active=%d phase=%s complete=%t",
			rs.Active, rs.Phase, rs.EnumComplete)
		if bus := a.env.Bus; bus != nil {
			bus.Publish(events.Event{
				Type:  events.TypeResume,
				Phase: rs.Phase,
				Count: rs.OracleQueries,
				Fields: map[string]string{
					"active":   strconv.Itoa(rs.Active),
					"complete": strconv.FormatBool(rs.EnumComplete),
				},
			})
		}
	}
	if w := opts.Checkpointer; w != nil {
		a.ck = &ckptState{w: w, lockedHash: hash, sig: sig}
	}
	// The extractor's per-DIP progress hook (checkpoint cadence + event
	// publishing) is installed by installProgress after this returns,
	// so a bus-only run gets it without durability armed.
	return nil
}

// validateResume refuses snapshots taken from a different instance.
func validateResume(rs *checkpoint.Snapshot, hash, sig string, width int) error {
	if rs.LockedHash != hash {
		return fmt.Errorf("%w: locked netlist hash %.12s…, snapshot has %.12s…", ErrResumeMismatch, hash, rs.LockedHash)
	}
	if rs.OptionsSig != sig {
		return fmt.Errorf("%w: options %q, snapshot has %q", ErrResumeMismatch, sig, rs.OptionsSig)
	}
	if rs.DIPWidth != width {
		return fmt.Errorf("%w: block width %d, snapshot has %d", ErrResumeMismatch, width, rs.DIPWidth)
	}
	return nil
}

// ckptMark records which extraction is in flight, so snapshots taken
// during it name the right (hypothesis, calibration) cell.
func (a *attack) ckptMark(active int, calib uint64) {
	if a.ck == nil {
		return
	}
	a.ck.active, a.ck.calib = active, calib
	a.ck.set, a.ck.complete = nil, false
}

// ckptPump advances the checkpoint cadence by n progress events (DIPs
// enumerated) and hands the writer a fresh snapshot when one is due.
// Disabled-checkpoint cost: one nil check.
func (a *attack) ckptPump(n uint64) {
	if a.ck == nil {
		return
	}
	if !a.ck.w.Tick(n) {
		return
	}
	a.ck.w.Offer(a.buildSnapshot())
}

// buildSnapshot assembles a Snapshot from the attack's current state.
// It runs on the attack goroutine (the only mutator of that state); the
// DIP words are copied so the writer goroutine owns its data outright.
// The writer stamps the oracle identity as it persists the snapshot.
func (a *attack) buildSnapshot() *checkpoint.Snapshot {
	ck := a.ck
	s := &checkpoint.Snapshot{
		LockedHash:    ck.lockedHash,
		OptionsSig:    ck.sig,
		Active:        ck.active,
		Calib:         ck.calib,
		Phase:         a.env.Phase,
		EnumComplete:  ck.complete,
		OracleQueries: a.queries,
	}
	if s.Active == 0 {
		s.Active = 1
	}
	if ck.set != nil {
		s.DIPWidth = ck.set.BlockWidth()
		s.DIPWords = ck.set.CloneWords()
	} else {
		s.DIPWidth = a.layout.N()
		empty, err := NewDIPSet(s.DIPWidth)
		if err == nil {
			s.DIPWords = empty.CloneWords()
		}
	}
	return s
}

// resumeSkip reports whether the resume snapshot proves this hypothesis
// already failed deterministically before the crash, letting the
// resumed run jump straight to the hypothesis that was in flight.
func (a *attack) resumeSkip(active int) bool {
	if a.resume == nil || a.resume.Active <= active {
		return false
	}
	a.env.Tel.Counter("resume_hypotheses_skipped_total").Inc()
	a.logf("resume: hypothesis active=%d already failed before the checkpoint; skipping", active)
	return true
}

// extractDIPs runs one DIP-set extraction with checkpoint bookkeeping:
// it consumes the resume snapshot when it matches this (hypothesis,
// calibration) cell — restoring a complete set outright, or replaying a
// partial one into the extractor as blocking-clause seeds — and falls
// through to a normal extraction otherwise.
func (a *attack) extractDIPs(active int, calib uint64) (*DIPSet, error) {
	a.ckptMark(active, calib)
	rs := a.resume
	if rs == nil || rs.Active != active || rs.Calib != calib {
		return a.ext.DIPs(a.assign(active, calib))
	}
	a.resume = nil // one-shot: later extractions start fresh
	set, err := NewDIPSetFromWords(rs.DIPWidth, rs.DIPWords)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrResumeMismatch, err)
	}
	restored := set.Count()
	a.env.Tel.Counter("resume_dips_restored_total").Add(restored)
	if rs.EnumComplete {
		a.env.Tel.Counter("resume_enum_skipped_total").Inc()
		a.logf("resume: restored complete DIP set (%d DIPs), skipping re-enumeration", restored)
		if a.ck != nil {
			a.ck.set, a.ck.complete = set, true
		}
		return set, nil
	}
	if se, ok := a.ext.(*SATExtractor); ok {
		se.seed = set
		a.env.Tel.Counter("resume_dips_replayed_total").Add(restored)
		a.logf("resume: replaying %d DIPs as blocking clauses, continuing enumeration", restored)
	} else {
		a.logf("resume: extractor cannot seed partial sets; re-enumerating %d DIPs", restored)
	}
	return a.ext.DIPs(a.assign(active, calib))
}
