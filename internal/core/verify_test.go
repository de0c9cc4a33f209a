package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// callLog wraps an oracle and counts its calls by kind.
type callLog struct {
	inner          oracle.Oracle
	scalar, wide64 int
}

func (o *callLog) NumInputs() int  { return o.inner.NumInputs() }
func (o *callLog) NumOutputs() int { return o.inner.NumOutputs() }
func (o *callLog) Query(in []bool) ([]bool, error) {
	o.scalar++
	return o.inner.Query(in)
}
func (o *callLog) Query64(in []uint64) ([]uint64, error) {
	o.wide64++
	return o.inner.Query64(in)
}

// tableIRowInstance locks a c432-profile host behind the paper's
// |K|=32 chain A-O-2A-O-2A-O-2A-O-2A-O-A (the Table-I c432/c880 row).
func tableIRowInstance(t *testing.T) (*lock.Locked, *lock.CASInstance, *netlist.Circuit) {
	t.Helper()
	prof, err := synth.ProfileByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	h, err := synth.Generate(synth.FromProfile(prof, 5))
	if err != nil {
		t.Fatal(err)
	}
	locked, inst, err := lock.ApplyCAS(h, lock.CASOptions{
		Chain: lock.MustParseChain("A-O-2A-O-2A-O-2A-O-2A-O-A"), Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return locked, inst, h
}

// TestVerifyOracleAccounting pins what verification costs the chip on a
// Table-I row whose decode leaves hundreds of candidates: the attack
// reports exactly the patterns the chip evaluated, all candidates share
// one 64-lane probe (one Query64 for the hypothesis), and every other
// question is one distinguishing witness, asked as one scalar query
// that removes at least one candidate. No DIP is replayed.
func TestVerifyOracleAccounting(t *testing.T) {
	locked, inst, h := tableIRowInstance(t)
	sim := oracle.MustNewSim(h)
	orc := &callLog{inner: sim}
	res, err := Run(Options{Locked: locked.Circuit, Oracle: orc, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCorrectCASKey(res.Key) {
		t.Fatal("wrong key")
	}
	if res.Case != 1 {
		t.Fatalf("row decoded under Case %d; the accounting below assumes only the first hypothesis ran", res.Case)
	}
	if got := sim.Queries(); res.OracleQueries != got {
		t.Errorf("Result.OracleQueries = %d, the chip evaluated %d patterns", res.OracleQueries, got)
	}
	if res.CandidatesTried < 100 {
		t.Fatalf("%d candidates tried; the row no longer exercises a crowded probe", res.CandidatesTried)
	}
	if orc.wide64 != 1 {
		t.Errorf("%d Query64 calls, want the 1 shared probe", orc.wide64)
	}
	if orc.scalar == 0 || orc.scalar >= res.CandidatesTried {
		t.Errorf("%d witness queries for %d candidates, want at least 1 and fewer than one per candidate", orc.scalar, res.CandidatesTried)
	}
	if got := uint64(orc.scalar + 64*orc.wide64); got != res.OracleQueries {
		t.Errorf("%d scalar + %d 64-lane calls make %d patterns, Result reports %d", orc.scalar, orc.wide64, got, res.OracleQueries)
	}
}

// laneFlipper flips output bit 0 in lanes 0 and 1 of every 64-lane
// answer and answers scalar queries truthfully: noise that lands in the
// shared probe, the same on every call, so that no repeated query can
// vote it away.
type laneFlipper struct {
	inner oracle.Oracle
	calls int
}

func (o *laneFlipper) NumInputs() int                  { return o.inner.NumInputs() }
func (o *laneFlipper) NumOutputs() int                 { return o.inner.NumOutputs() }
func (o *laneFlipper) Query(in []bool) ([]bool, error) { return o.inner.Query(in) }
func (o *laneFlipper) Query64(in []uint64) ([]uint64, error) {
	out, err := o.inner.Query64(in)
	if err != nil {
		return nil, err
	}
	o.calls++
	out = append([]uint64(nil), out...)
	out[0] ^= 0b11
	return out, nil
}

// TestVerifyNoisyProbe runs the attack against persistent noise in the
// shared probe with no denoising decorator in front: the true key's
// class disagrees with both flipped lanes and is eliminated, so the
// attack must fail loudly with ErrOracleInconsistent rather than name a
// wrong survivor.
func TestVerifyNoisyProbe(t *testing.T) {
	locked, _, h := tableIRowInstance(t)
	noisy := &laneFlipper{inner: oracle.MustNewSim(h)}
	res, err := Run(Options{Locked: locked.Circuit, Oracle: noisy, Seed: 11})
	if res != nil {
		t.Fatalf("noisy probe yielded a key (%v); want a loud failure", res.Key)
	}
	if !errors.Is(err, ErrOracleInconsistent) {
		t.Fatalf("err = %v, want ErrOracleInconsistent", err)
	}
	if noisy.calls == 0 {
		t.Fatal("no Query64 answer was flipped; the test exercised nothing")
	}
}

// TestUnknownNeverRemovesTrueKey is the soundness claim behind reading
// a budget-starved distinguish as "equivalent": an Unknown verdict never
// removes the true key. On the Table-I c432 row the probe leaves dozens
// of candidates standing, exactly one of them in the true key's class.
// The elimination loop runs at conflict budgets 1–4, where the keyed
// miter gives up on some pairs, over the whole survivor list and, for
// each wrong survivor w, over the lists (true, w, the other wrong ones)
// and (w, true, the other wrong ones); every run must confirm a key the
// instance accepts. A loop that removed either side of a pair on Unknown
// fails one of the two orders.
func TestUnknownNeverRemovesTrueKey(t *testing.T) {
	locked, inst, h := tableIRowInstance(t)
	reg := telemetry.New()
	opts := Options{Locked: locked.Circuit, Oracle: oracle.MustNewSim(h), Seed: 11, SATWidthLimit: 1}
	layout, err := DiscoverLayout(opts.Locked)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewSimulator(opts.Locked)
	if err != nil {
		t.Fatal(err)
	}
	a := &attack{opts: opts, layout: layout, sim: sim,
		env: &engine.Env{Ctx: context.Background(), Tel: reg},
		rng: rand.New(rand.NewSource(opts.Seed ^ 0x5eed))}
	if a.ext, err = a.chooseExtractor(); err != nil {
		t.Fatal(err)
	}
	dips, err := a.extractDIPs(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.decode(nil, dips)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.deltas) == 0 {
		t.Fatal("the row needs a calibration sweep; the test assumes a δ witness")
	}
	probe, err := a.newProbeSet(st)
	if err != nil {
		t.Fatal(err)
	}
	live, err := a.keepAgreeing(probe, a.buildCandidates(1, 0, st))
	if err != nil {
		t.Fatal(err)
	}
	var right []candidate
	var wrong []candidate
	for _, c := range live {
		if inst.IsCorrectCASKey(c.key) {
			right = append(right, c)
		} else {
			wrong = append(wrong, c)
		}
	}
	if len(right) != 1 || len(wrong) == 0 {
		t.Fatalf("%d right and %d wrong candidates survive the probe; the row no longer exercises elimination", len(right), len(wrong))
	}
	lists := [][]candidate{live}
	for i, w := range wrong {
		rest := slices.Delete(slices.Clone(wrong), i, i+1)
		lists = append(lists, append([]candidate{right[0], w}, rest...), append([]candidate{w, right[0]}, rest...))
	}
	for budget := uint64(1); budget <= 4; budget++ {
		for i, l := range lists {
			win, err := a.eliminate(slices.Clone(l), st, budget)
			if err != nil {
				t.Fatalf("budget %d, list %d: %v", budget, i, err)
			}
			if win == nil || !inst.IsCorrectCASKey(win.key) {
				t.Fatalf("budget %d, list %d: elimination lost the true key", budget, i)
			}
		}
	}
	if reg.Snapshot().Counters["engine_distinguish_unknown_total"] == 0 {
		t.Fatal("no distinguish ran out of budget; the test exercised no Unknown verdict")
	}
}

// rowSurvivors decodes the Table-I c432 row under Case 1 and returns an
// attack ready to eliminate, the decoded structure, and the probe
// survivors split into the true key's class and the wrong ones.
func rowSurvivors(t *testing.T, opts Options, reg *telemetry.Registry) (a *attack, st *structured, right, wrong []candidate) {
	t.Helper()
	_, inst, _ := tableIRowInstance(t)
	layout, err := DiscoverLayout(opts.Locked)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewSimulator(opts.Locked)
	if err != nil {
		t.Fatal(err)
	}
	a = &attack{opts: opts, layout: layout, sim: sim,
		env: &engine.Env{Ctx: context.Background(), Tel: reg},
		rng: rand.New(rand.NewSource(opts.Seed ^ 0x5eed))}
	if a.ext, err = a.chooseExtractor(); err != nil {
		t.Fatal(err)
	}
	dips, err := a.extractDIPs(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = a.decode(nil, dips); err != nil {
		t.Fatal(err)
	}
	probe, err := a.newProbeSet(st)
	if err != nil {
		t.Fatal(err)
	}
	live, err := a.keepAgreeing(probe, a.buildCandidates(1, 0, st))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range live {
		if inst.IsCorrectCASKey(c.key) {
			right = append(right, c)
		} else {
			wrong = append(wrong, c)
		}
	}
	if len(right) != 1 || len(wrong) == 0 {
		t.Fatalf("%d right and %d wrong candidates survive the probe; the row no longer exercises elimination", len(right), len(wrong))
	}
	return a, st, right, wrong
}

// TestUnknownNeverReturnsWrongSurvivor is the other half of
// TestUnknownNeverRemovesTrueKey: a wrong probe survivor w at the head of
// the list, facing only the true key, is never returned, whatever the
// starting conflict budget. At budgets 1–4 the first distinguish of
// some pairs is Unknown; reading that as "equivalent" would confirm w.
func TestUnknownNeverReturnsWrongSurvivor(t *testing.T) {
	locked, inst, h := tableIRowInstance(t)
	reg := telemetry.New()
	a, st, right, wrong := rowSurvivors(t, Options{Locked: locked.Circuit, Oracle: oracle.MustNewSim(h), Seed: 11}, reg)
	for budget := uint64(1); budget <= 4; budget++ {
		for _, w := range wrong {
			win, err := a.eliminate([]candidate{w, right[0]}, st, budget)
			if err != nil {
				t.Fatalf("budget %d, candidate %d: %v", budget, w.id, err)
			}
			if win == nil || win.id == w.id || !inst.IsCorrectCASKey(win.key) {
				t.Fatalf("budget %d: elimination of [%d, %d] did not confirm the true key", budget, w.id, right[0].id)
			}
		}
	}
	if reg.Snapshot().Counters["engine_distinguish_unknown_total"] == 0 {
		t.Fatal("no distinguish ran out of budget; the test exercised no Unknown verdict")
	}
}
