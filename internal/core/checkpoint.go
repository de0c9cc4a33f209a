package core

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// bankCap bounds the banked oracle-response entries a single attack will
// hold (and therefore serialize into every snapshot). Entries are a few
// hundred bytes each, so the cap keeps the bank around tens of MiB even
// on query-heavy instances; once full, new answers simply stop being
// banked — correctness never depends on a hit.
const bankCap = 1 << 15

// optionsSig fingerprints the options that change the attack's query
// stream or decisions; a snapshot is only resumable under identical
// semantics (mirrors the service cache key's options component).
func optionsSig(o *Options) string {
	return fmt.Sprintf("v2 seed=%d retries=%d satwidth=%d",
		o.Seed, o.MismatchRetries, o.SATWidthLimit)
}

// lockedHash returns the content hash of the circuit's canonical
// serialization — the identity a snapshot is pinned to.
func lockedHash(o *Options) (string, error) {
	canon, err := bench.Canonical(o.Locked)
	if err != nil {
		return "", fmt.Errorf("core: hashing locked netlist for checkpointing: %w", err)
	}
	return cache.SumParts(canon), nil
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
// (typed refusal on mismatch), the oracle is wrapped with the response
// bank, and the extractor's progress hook starts feeding the checkpoint
// cadence.
func (a *attack) armDurability() error {
	opts := &a.opts
	if opts.Checkpointer == nil && opts.ResumeFrom == nil {
		return nil
	}
	hash, err := lockedHash(opts)
	if err != nil {
		return err
	}
	sig := optionsSig(opts)

	bank := newBankedOracle(opts.Oracle, a.env.Tel)
	if rs := opts.ResumeFrom; rs != nil {
		sp := a.root.Child("resume")
		if err := validateResume(rs, hash, sig, a.layout.N()); err != nil {
			sp.SetArg("refused", err.Error())
			sp.End()
			return err
		}
		bank.load(rs.Responses, rs.Scalar)
		a.resume = rs
		a.env.Tel.Counter("resume_loads_total").Inc()
		a.env.Tel.Counter("resume_responses_loaded_total").Add(uint64(len(rs.Responses) + len(rs.Scalar)))
		sp.SetArg("active", strconv.Itoa(rs.Active))
		sp.SetArg("phase", rs.Phase)
		sp.SetArg("complete", strconv.FormatBool(rs.EnumComplete))
		sp.SetArg("banked", strconv.Itoa(len(rs.Responses)+len(rs.Scalar)))
		sp.End()
		a.logf("resuming from checkpoint: active=%d phase=%s complete=%t banked=%d",
			rs.Active, rs.Phase, rs.EnumComplete, len(rs.Responses)+len(rs.Scalar))
		if bus := a.env.Bus; bus != nil {
			bus.Publish(events.Event{
				Type:  events.TypeResume,
				Phase: rs.Phase,
				Count: rs.OracleQueries,
				Fields: map[string]string{
					"active":   strconv.Itoa(rs.Active),
					"complete": strconv.FormatBool(rs.EnumComplete),
					"banked":   strconv.Itoa(len(rs.Responses) + len(rs.Scalar)),
				},
			})
		}
	}
	a.bank = bank
	opts.Oracle = bank

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
// enumerated or oracle patterns answered) and hands the writer a fresh
// snapshot when one is due. Disabled-checkpoint cost: one nil check.
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
// DIP words and response bank are copied so the writer goroutine owns
// its data outright.
func (a *attack) buildSnapshot() *checkpoint.Snapshot {
	ck := a.ck
	s := &checkpoint.Snapshot{
		LockedHash:    ck.lockedHash,
		OracleHash:    ck.w.OracleHash(),
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
	if a.bank != nil {
		s.Responses, s.Scalar = a.bank.export()
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

// bankedOracle decorates the oracle with a response bank: answers are
// recorded as they arrive and replayed from memory when the identical
// pattern is asked again. Snapshots persist the bank, so a resumed
// attack's deterministic re-walk of the probe/verify query stream is
// served locally up to the crash point — the chip only sees queries the
// crashed run never got answered. Implements BatchOracle so the wide
// verify path keeps its shape (batches fall back to per-batch Query64
// when the inner oracle is not batched, exactly like oracle.Resilient).
//
// With a noisy oracle the bank intentionally freezes the first answer
// per pattern — deterministic replay is the point; denoising belongs to
// oracle.Resilient underneath the bank.
type bankedOracle struct {
	inner oracle.Oracle
	batch oracle.BatchOracle // nil when inner is not batched
	words map[string][]uint64
	bits  map[string][]byte
	hits  uint64
	cHits *telemetry.Counter
}

func newBankedOracle(inner oracle.Oracle, tel *telemetry.Registry) *bankedOracle {
	b := &bankedOracle{
		inner: inner,
		words: make(map[string][]uint64),
		bits:  make(map[string][]byte),
		cHits: tel.Counter("resume_oracle_hits_total"),
	}
	b.batch, _ = inner.(oracle.BatchOracle)
	return b
}

// load seeds the bank from snapshot responses.
func (b *bankedOracle) load(resp []checkpoint.Response, scalar []checkpoint.ScalarResponse) {
	for _, r := range resp {
		b.words[wordKey(r.In)] = r.Out
	}
	for _, r := range scalar {
		b.bits[string(r.In)] = r.Out
	}
}

// export copies the bank for a snapshot. Entry order is map-random,
// which is fine: the resumed run looks entries up by key, and snapshots
// are not required to be byte-canonical.
func (b *bankedOracle) export() ([]checkpoint.Response, []checkpoint.ScalarResponse) {
	resp := make([]checkpoint.Response, 0, len(b.words))
	for k, out := range b.words {
		resp = append(resp, checkpoint.Response{In: wordsFromKey(k), Out: append([]uint64(nil), out...)})
	}
	scalar := make([]checkpoint.ScalarResponse, 0, len(b.bits))
	for k, out := range b.bits {
		scalar = append(scalar, checkpoint.ScalarResponse{In: []byte(k), Out: append([]byte(nil), out...)})
	}
	return resp, scalar
}

func (b *bankedOracle) full() bool { return len(b.words)+len(b.bits) >= bankCap }

// Hits returns the number of oracle calls served from the bank.
func (b *bankedOracle) Hits() uint64 { return b.hits }

func (b *bankedOracle) NumInputs() int  { return b.inner.NumInputs() }
func (b *bankedOracle) NumOutputs() int { return b.inner.NumOutputs() }

// Query implements oracle.Oracle.
func (b *bankedOracle) Query(in []bool) ([]bool, error) {
	key := string(packBits(in))
	if out, ok := b.bits[key]; ok {
		b.hits++
		b.cHits.Inc()
		return unpackBits(out, b.inner.NumOutputs()), nil
	}
	out, err := b.inner.Query(in)
	if err != nil {
		return nil, err
	}
	if !b.full() {
		b.bits[key] = packBits(out)
	}
	return out, nil
}

// Query64 implements oracle.Oracle.
func (b *bankedOracle) Query64(in []uint64) ([]uint64, error) {
	key := wordKey(in)
	if out, ok := b.words[key]; ok {
		b.hits++
		b.cHits.Inc()
		return append([]uint64(nil), out...), nil
	}
	out, err := b.inner.Query64(in)
	if err != nil {
		return nil, err
	}
	if !b.full() {
		b.words[key] = append([]uint64(nil), out...)
	}
	return out, nil
}

// EvalMany implements oracle.BatchOracle: banked batches are answered
// locally, the misses forwarded in one (order-preserving) inner call.
func (b *bankedOracle) EvalMany(ins [][]uint64) ([][]uint64, error) {
	outs := make([][]uint64, len(ins))
	var missIdx []int
	var miss [][]uint64
	for i, in := range ins {
		if out, ok := b.words[wordKey(in)]; ok {
			b.hits++
			b.cHits.Inc()
			outs[i] = append([]uint64(nil), out...)
			continue
		}
		missIdx = append(missIdx, i)
		miss = append(miss, in)
	}
	if len(miss) == 0 {
		return outs, nil
	}
	var got [][]uint64
	var err error
	if b.batch != nil {
		got, err = b.batch.EvalMany(miss)
	} else {
		got = make([][]uint64, len(miss))
		for i, in := range miss {
			got[i], err = b.inner.Query64(in)
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	for i, idx := range missIdx {
		outs[idx] = got[i]
		if !b.full() {
			b.words[wordKey(ins[idx])] = append([]uint64(nil), got[i]...)
		}
	}
	return outs, nil
}

// wordKey packs a word vector into a map key.
func wordKey(ws []uint64) string {
	buf := make([]byte, 8*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return string(buf)
}

func wordsFromKey(k string) []uint64 {
	out := make([]uint64, len(k)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64([]byte(k[8*i : 8*i+8]))
	}
	return out
}

// packBits packs a bool vector 8 per byte (LSB first).
func packBits(v []bool) []byte {
	out := make([]byte, (len(v)+7)/8)
	for i, b := range v {
		if b {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

func unpackBits(p []byte, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		if i/8 < len(p) && p[i/8]&(1<<uint(i%8)) != 0 {
			out[i] = true
		}
	}
	return out
}
