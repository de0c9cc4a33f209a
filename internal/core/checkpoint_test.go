package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// cancelOracle cancels the attack's context after a fixed number of
// oracle calls — a deterministic stand-in for a crash mid-attack.
// tripped records that the cancel fired, so a test whose attack needs
// fewer calls than left cannot pass without crashing.
type cancelOracle struct {
	inner   oracle.Oracle
	left    int
	cancel  context.CancelFunc
	tripped bool
}

func (o *cancelOracle) tick() {
	o.left--
	if o.left == 0 {
		o.cancel()
		o.tripped = true
	}
}
func (o *cancelOracle) NumInputs() int  { return o.inner.NumInputs() }
func (o *cancelOracle) NumOutputs() int { return o.inner.NumOutputs() }
func (o *cancelOracle) Query(in []bool) ([]bool, error) {
	o.tick()
	return o.inner.Query(in)
}
func (o *cancelOracle) Query64(in []uint64) ([]uint64, error) {
	o.tick()
	return o.inner.Query64(in)
}

// TestCheckpointResumeBitIdentical is the durability acceptance
// property: an attack interrupted mid-run and resumed from its last
// snapshot recovers the exact key of an uninterrupted run, and the
// resumed run restores the crashed run's complete DIP set instead of
// enumerating it again.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	lockedC, inst, h := lockedInstance(t, "2A-O-A", 41)
	const seed = 42

	// Reference: uninterrupted run.
	ref, err := Run(Options{Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: seed, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCorrectCASKey(ref.Key) {
		t.Fatal("reference attack recovered a wrong key")
	}

	// Crashed run: checkpoint on every progress event, die at the first
	// oracle call — the shared candidate probe, after the DIP set is
	// enumerated and decoded.
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	telCrash := telemetry.New()
	w, err := checkpoint.NewWriter(checkpoint.WriterConfig{
		Path: path, EveryEvents: 1, Interval: time.Hour, Telemetry: telCrash,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co := &cancelOracle{inner: oracle.MustNewSim(h), left: 1, cancel: cancel}
	_, err = Run(Options{
		Locked: lockedC, Oracle: co, Seed: seed, Telemetry: telCrash,
		Context: ctx, Checkpointer: w,
	})
	if !co.tripped {
		t.Fatal("the attack finished before the injected crash")
	}
	if err == nil {
		t.Fatal("interrupted attack reported success")
	}
	w.Close()
	if w.Writes() == 0 {
		t.Fatal("crashed run persisted no snapshot")
	}

	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.EnumComplete {
		t.Fatal("the snapshot taken at the probe holds a partial DIP set")
	}

	// Resumed run: fresh process, fresh oracle, snapshot in hand.
	telRes := telemetry.New()
	res, err := Run(Options{
		Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: seed, Telemetry: telRes,
		ResumeFrom: snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Key, ref.Key) {
		t.Fatalf("resumed key differs from uninterrupted key:\n resumed %v\n scratch %v", res.Key, ref.Key)
	}
	if res.Extractions >= ref.Extractions {
		t.Fatalf("resumed run made %d DIP-set extractions, scratch made %d — resume saved nothing", res.Extractions, ref.Extractions)
	}
	if got := telRes.Counter("resume_loads_total").Value(); got != 1 {
		t.Errorf("resume_loads_total = %d, want 1", got)
	}
	if got := telRes.Counter("resume_enum_skipped_total").Value(); got != 1 {
		t.Errorf("resume_enum_skipped_total = %d, want 1", got)
	}
	if got := telRes.Counter("resume_dips_restored_total").Value(); got != ref.TotalDIPs {
		t.Errorf("resume_dips_restored_total = %d, want the %d DIPs of the scratch run", got, ref.TotalDIPs)
	}
}

// TestResumeMismatchRefused pins the typed refusal: a snapshot resumed
// against a different netlist or different attack options must fail
// with ErrResumeMismatch before any oracle traffic.
func TestResumeMismatchRefused(t *testing.T) {
	lockedC, _, h := lockedInstance(t, "2A-O-A", 51)
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	w, err := checkpoint.NewWriter(checkpoint.WriterConfig{
		Path: path, EveryEvents: 1, Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{
		Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: 7,
		Telemetry: telemetry.New(), Checkpointer: w,
	}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	otherC, _, otherH := lockedInstance(t, "2A-O-A", 52)
	if _, err := Run(Options{
		Locked: otherC, Oracle: oracle.MustNewSim(otherH), Seed: 7,
		Telemetry: telemetry.New(), ResumeFrom: snap,
	}); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("foreign netlist: got %v, want ErrResumeMismatch", err)
	}

	if _, err := Run(Options{
		Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: 8,
		Telemetry: telemetry.New(), ResumeFrom: snap,
	}); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("different options: got %v, want ErrResumeMismatch", err)
	}
}

// TestResumeRefusesV1Snapshot: a snapshot written under an older
// options signature — v1 carried the since-removed encoding switch, v2
// the since-removed mismatch re-query count — is refused with
// ErrResumeMismatch even when every remaining option matches, rather
// than resumed under semantics it was not taken with.
func TestResumeRefusesV1Snapshot(t *testing.T) {
	lockedC, _, h := lockedInstance(t, "2A-O-A", 53)
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	w, err := checkpoint.NewWriter(checkpoint.WriterConfig{
		Path: path, EveryEvents: 1, Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{
		Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: 7,
		Telemetry: telemetry.New(), Checkpointer: w,
	}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, sig := range []string{
		"v1 seed=7 retries=0 satwidth=0 legacy=false",
		"v2 seed=7 retries=0 satwidth=0",
	} {
		snap.OptionsSig = sig
		if _, err := Run(Options{
			Locked: lockedC, Oracle: oracle.MustNewSim(h), Seed: 7,
			Telemetry: telemetry.New(), ResumeFrom: snap,
		}); !errors.Is(err, ErrResumeMismatch) {
			t.Fatalf("%s snapshot: got %v, want ErrResumeMismatch", sig[:2], err)
		}
	}
}

// BenchmarkCheckpointOverhead guards the enumerate hot loop: with
// checkpointing disabled the per-event cost is one nil check, and with
// a writer armed but no snapshot due it is two atomic operations.
func BenchmarkCheckpointOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		a := &attack{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.ckptPump(1)
		}
	})
	b.Run("armed-idle", func(b *testing.B) {
		w, err := checkpoint.NewWriter(checkpoint.WriterConfig{
			Path:        filepath.Join(b.TempDir(), "snap.ckpt"),
			EveryEvents: math.MaxInt64, Interval: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		a := &attack{ck: &ckptState{w: w}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.ckptPump(1)
		}
	})
}
