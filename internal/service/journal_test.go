package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// journalService is newTestService with durability armed in dir.
func journalService(t *testing.T, dir string, cfg Config) (*Service, *telemetry.Registry) {
	t.Helper()
	cfg.JournalDir = dir
	return newTestService(t, cfg)
}

// hashFixture computes the content address the service would assign to
// req, without running a service.
func hashFixture(t *testing.T, req AttackRequest) (string, *parsedRequest) {
	t.Helper()
	probe := &Service{cfg: Config{MaxBlockWidth: core.MaxBlockWidth}}
	parsed, err := probe.validate(req)
	if err != nil {
		t.Fatal(err)
	}
	return hashRequest(parsed), parsed
}

// TestJournalRestartRestoresJobs is the tentpole service property: a
// daemon restart rebuilds the job ledger from the WAL — finished jobs
// answer by ID with their sealed outcome (and re-seed the result
// cache), unfinished ones are re-admitted and run to completion.
func TestJournalRestartRestoresJobs(t *testing.T) {
	dir := t.TempDir()
	fx := makeFixture(t, 8, 3, 3)
	req := AttackRequest{Locked: fx.locked, Oracle: fx.orig, Seed: 5}

	s1, _ := journalService(t, dir, Config{Workers: 1})
	j1, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j1)
	if st.State != StateDone {
		t.Fatalf("job finished as %s: %s", st.State, st.Error)
	}
	s1.Close()

	// Journal a submission the first daemon never got to run: a fresh
	// WAL entry with no start/done records, exactly what a crash between
	// admission and execution leaves behind.
	fx2 := makeFixture(t, 8, 3, 9)
	req2 := AttackRequest{Locked: fx2.locked, Oracle: fx2.orig, Seed: 6}
	hash2, _ := hashFixture(t, req2)
	jnl, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	req2JSON := mustMarshal(t, req2)
	if err := jnl.append(recSubmit, []byte("j-000077"), []byte(hash2), req2JSON); err != nil {
		t.Fatal(err)
	}
	jnl.close()

	s2, reg := journalService(t, dir, Config{Workers: 1})
	// The finished job answers by its original ID, from the blob.
	st2, err := s2.Get(j1.ID())
	if err != nil {
		t.Fatalf("job %s lost across restart: %v", j1.ID(), err)
	}
	if st2.State != StateDone {
		t.Fatalf("replayed job state = %s, want done", st2.State)
	}
	_, res, finished, err := s2.Outcome(j1.ID())
	if err != nil || !finished || res == nil {
		t.Fatalf("replayed outcome: res=%v finished=%t err=%v", res, finished, err)
	}
	assertCorrectKey(t, fx, res.Key)
	// The pending job re-admitted under its journaled ID and completes.
	pj, err := s2.lookup("j-000077")
	if err != nil {
		t.Fatal(err)
	}
	pst := waitJob(t, pj)
	if pst.State != StateDone {
		t.Fatalf("re-admitted job finished as %s: %s", pst.State, pst.Error)
	}
	if got := reg.Counter(telemetry.Label("journal_replayed_total", "state", "done")).Value(); got != 1 {
		t.Errorf("journal_replayed_total{state=done} = %d, want 1", got)
	}
	if got := reg.Counter(telemetry.Label("journal_replayed_total", "state", "pending")).Value(); got != 1 {
		t.Errorf("journal_replayed_total{state=pending} = %d, want 1", got)
	}
	// Replayed results re-seed the content cache: resubmitting the
	// finished request is a hit, not a re-run.
	j3, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st3 := waitJob(t, j3); !st3.Cached {
		t.Error("resubmission after restart missed the replay-seeded cache")
	}
	// New submissions never collide with replayed IDs.
	j4, err := s2.Submit(AttackRequest{Locked: fx.locked, Oracle: fx.orig, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if idSuffix(j4.ID()) <= 77 {
		t.Fatalf("post-replay ID %s not past journaled maximum", j4.ID())
	}
}

// TestJournalResumeFromCheckpoint pins the crash-resume path: a job
// whose previous execution left a checkpoint blob in the journal's
// blob store picks the attack up from the snapshot instead of starting
// over, and still recovers the correct key.
func TestJournalResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fx := makeFixture(t, 8, 3, 13)
	req := AttackRequest{Locked: fx.locked, Oracle: fx.orig, Seed: 21}
	hash, parsed := hashFixture(t, req)

	// Fabricate the crashed execution: run the attack directly with a
	// checkpoint writer aimed at the journal's slot for this hash, and
	// cancel it after a few oracle calls.
	if err := os.MkdirAll(filepath.Join(dir, "cas"), 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := checkpoint.NewWriter(checkpoint.WriterConfig{
		Path:        filepath.Join(dir, "cas", "ck-"+hash+".bin"),
		OracleHash:  parsed.oracleHash,
		EveryEvents: 1,
		Interval:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel at the first oracle call: the shared candidate probe, after
	// the DIP set is enumerated and decoded.
	tick := &tickingOracle{inner: oracle.MustNewSim(parsed.orig), left: 1, cancel: cancel}
	_, runErr := core.Run(core.Options{
		Locked: parsed.locked,
		Oracle: tick,
		Seed:   req.Seed, Telemetry: telemetry.New(),
		Context: ctx, Checkpointer: w,
	})
	if !tick.tripped {
		t.Fatal("fabricated crash run finished before the injected cancel")
	}
	if runErr == nil {
		t.Fatal("fabricated crash run succeeded")
	}
	w.Close()
	if w.Writes() == 0 {
		t.Fatal("fabricated crash left no checkpoint")
	}

	jnl, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.append(recSubmit, []byte("j-000003"), []byte(hash), mustMarshal(t, req)); err != nil {
		t.Fatal(err)
	}
	if err := jnl.append(recStart, []byte(hash)); err != nil {
		t.Fatal(err)
	}
	jnl.close()

	s, reg := journalService(t, dir, Config{Workers: 1})
	j, err := s.lookup("j-000003")
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("resumed job finished as %s: %s", st.State, st.Error)
	}
	_, res, _, err := s.Outcome("j-000003")
	if err != nil || res == nil {
		t.Fatalf("resumed outcome: %v, %v", res, err)
	}
	assertCorrectKey(t, fx, res.Key)
	if got := reg.Counter("journal_resumed_from_checkpoint_total").Value(); got != 1 {
		t.Errorf("journal_resumed_from_checkpoint_total = %d, want 1", got)
	}
	// The sealed job discards its checkpoint blob.
	if _, err := os.Stat(filepath.Join(dir, "cas", "ck-"+hash+".bin")); !os.IsNotExist(err) {
		t.Errorf("checkpoint blob still present after outcome sealed (stat err: %v)", err)
	}
}

// TestJournalRefusesRemovedOption: a request journaled with an option
// this build no longer has — the removed "portfolio" and "retries"
// fields, and a stand-in for any later removal — replays as a typed
// attack_failed job instead of silently running without the option.
func TestJournalRefusesRemovedOption(t *testing.T) {
	for _, removed := range []struct {
		field string
		value any
	}{
		{"removed_option", true},
		{"portfolio", 3},
		{"retries", 1},
	} {
		t.Run(removed.field, func(t *testing.T) {
			dir := t.TempDir()
			fx := makeFixture(t, 8, 3, 19)
			req := AttackRequest{Locked: fx.locked, Oracle: fx.orig, Seed: 33}
			hash, _ := hashFixture(t, req)
			old := marshalWith(t, req, removed.field, removed.value)
			jnl, _, err := openJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := jnl.append(recSubmit, []byte("j-000011"), []byte(hash), old); err != nil {
				t.Fatal(err)
			}
			jnl.close()

			s, reg := journalService(t, dir, Config{Workers: 1})
			st, err := s.Get("j-000011")
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateFailed || st.ErrorKind != KindAttackFailed {
				t.Fatalf("replayed job = %s/%s (%s), want failed/%s", st.State, st.ErrorKind, st.Error, KindAttackFailed)
			}
			if !strings.Contains(st.Error, "no longer admissible") || !strings.Contains(st.Error, removed.field) {
				t.Fatalf("error %q does not name the refused field", st.Error)
			}
			if got := reg.Counter("service_attack_runs_total").Value(); got != 0 {
				t.Errorf("refused replay ran %d attacks, want 0", got)
			}
		})
	}
}

// TestSubmitRefusesRemovedOption is the live counterpart: a POST
// carrying the removed "portfolio" field is a 400 whose error names the
// field, and no job is admitted.
func TestSubmitRefusesRemovedOption(t *testing.T) {
	fx := makeFixture(t, 8, 3, 19)
	s, reg := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body := marshalWith(t, AttackRequest{Locked: fx.locked, Oracle: fx.orig, Seed: 33}, "portfolio", 3)
	resp, err := http.Post(ts.URL+"/v1/attacks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var refusal errorBody
	if err := json.NewDecoder(resp.Body).Decode(&refusal); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d (%q), want %d", resp.StatusCode, refusal.Error, http.StatusBadRequest)
	}
	if !strings.Contains(refusal.Error, "portfolio") {
		t.Fatalf("error %q does not name the refused field", refusal.Error)
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("refused request admitted %d jobs", n)
	}
	if got := reg.Counter("service_attack_runs_total").Value(); got != 0 {
		t.Errorf("refused request ran %d attacks, want 0", got)
	}
}

// TestJournalCancelSurvivesRestart: a cancel record replays the job as
// canceled without re-running anything.
func TestJournalCancelSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fx := makeFixture(t, 8, 3, 17)
	req := AttackRequest{Locked: fx.locked, Oracle: fx.orig, Seed: 31}
	hash, _ := hashFixture(t, req)
	jnl, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.append(recSubmit, []byte("j-000009"), []byte(hash), mustMarshal(t, req)); err != nil {
		t.Fatal(err)
	}
	if err := jnl.append(recCancel, []byte("j-000009")); err != nil {
		t.Fatal(err)
	}
	jnl.close()

	s, reg := journalService(t, dir, Config{Workers: 1})
	st, err := s.Get("j-000009")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("replayed canceled job state = %s", st.State)
	}
	if got := reg.Counter("service_attack_runs_total").Value(); got != 0 {
		t.Errorf("canceled replay ran %d attacks, want 0", got)
	}
}

// TestJournalTornTailTolerated: a crash mid-append leaves a partial
// final record; boot truncates it and keeps everything before it.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.append(recDone, []byte("h1"), []byte("done")); err != nil {
		t.Fatal(err)
	}
	jnl.close()
	path := filepath.Join(dir, journalFile)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), whole...), encodeRecord(recDone, []byte("h2"), []byte("done"))[:11]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	jnl2, recs, err := openJournal(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer jnl2.close()
	if len(recs) != 1 || recs[0].typ != recDone || string(recs[0].field(0)) != "h1" {
		t.Fatalf("replayed %d records %+v, want the one whole record", len(recs), recs)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(whole)) {
		t.Fatalf("torn tail not truncated: size %d, want %d", fi.Size(), len(whole))
	}
}

// TestJournalInteriorCorruptionRefused: damage before the final record
// is a typed boot failure, never a silent skip.
func TestJournalInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.append(recDone, []byte("h1"), []byte("done")); err != nil {
		t.Fatal(err)
	}
	if err := jnl.append(recDone, []byte("h2"), []byte("done")); err != nil {
		t.Fatal(err)
	}
	jnl.close()
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 1 // inside the first record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{JournalDir: dir, Registry: telemetry.New()}); err == nil {
		t.Fatal("corrupt journal accepted")
	} else if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("got %v, want ErrJournalCorrupt", err)
	}
}

// assertCorrectKey checks a recovered key against the fixture's ground
// truth, accepting any key in the instance's equivalence class.
func assertCorrectKey(t *testing.T, fx fixture, key string) {
	t.Helper()
	bits := make([]bool, len(key))
	for i, c := range key {
		bits[i] = c == '1'
	}
	if !fx.inst.IsCorrectCASKey(bits) {
		t.Fatalf("recovered key %s is not correct for the instance", key)
	}
}

// marshalWith encodes req with one extra top-level field — a request
// as an older build that still had the field would have written it.
func marshalWith(t *testing.T, req AttackRequest, field string, value any) []byte {
	t.Helper()
	var fields map[string]any
	if err := json.Unmarshal(mustMarshal(t, req), &fields); err != nil {
		t.Fatal(err)
	}
	fields[field] = value
	data, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustMarshal(t *testing.T, req AttackRequest) []byte {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tickingOracle cancels the attack's context after a fixed number of
// oracle calls — a deterministic stand-in for a crash mid-attack.
type tickingOracle struct {
	inner   oracle.Oracle
	left    int
	cancel  context.CancelFunc
	tripped bool // the cancel fired
}

func (o *tickingOracle) tick() {
	o.left--
	if o.left == 0 {
		o.cancel()
		o.tripped = true
	}
}
func (o *tickingOracle) NumInputs() int  { return o.inner.NumInputs() }
func (o *tickingOracle) NumOutputs() int { return o.inner.NumOutputs() }
func (o *tickingOracle) Query(in []bool) ([]bool, error) {
	o.tick()
	return o.inner.Query(in)
}
func (o *tickingOracle) Query64(in []uint64) ([]uint64, error) {
	o.tick()
	return o.inner.Query64(in)
}
