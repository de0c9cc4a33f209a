package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// callLog wraps an oracle and counts its calls by kind. It deliberately
// implements only oracle.Oracle, so the DIP replay sends every 64-lane
// batch through Query64.
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
// one 64-lane probe (one Query64 for the hypothesis), distinguishing
// inputs are asked one pattern at a time, and the replay asks one batch
// per 64 DIPs.
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
	batches := int((res.TotalDIPs + 63) / 64)
	if orc.wide64 != 1+batches {
		t.Errorf("%d Query64 calls, want 1 probe + %d replay batches", orc.wide64, batches)
	}
	if got := uint64(orc.scalar + 64*orc.wide64); got != res.OracleQueries {
		t.Errorf("%d scalar + %d 64-lane calls make %d patterns, Result reports %d", orc.scalar, orc.wide64, got, res.OracleQueries)
	}
}

// laneFlipper flips output bit 0 in lanes 0 and 1 of every 64-lane
// answer and answers scalar queries truthfully: noise that lands in the
// shared probe and in every replay batch, and that the targeted
// re-query of MismatchRetries always voids. Two flipped lanes per batch
// mean every batch adjudicates more than one lane, each adjudication
// rerunning the shared simulator.
type laneFlipper struct {
	inner oracle.Oracle
	calls int
	// replayScalar counts scalar queries after the second Query64 call:
	// with one replay (the probe is the first call), these are exactly
	// the replay's re-queries.
	replayScalar int
}

func (o *laneFlipper) NumInputs() int  { return o.inner.NumInputs() }
func (o *laneFlipper) NumOutputs() int { return o.inner.NumOutputs() }
func (o *laneFlipper) Query(in []bool) ([]bool, error) {
	if o.calls >= 2 {
		o.replayScalar++
	}
	return o.inner.Query(in)
}
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

// TestVerifyNoisyProbeAndTailGroup runs the attack against noise in the
// probe and in a DIP-replay tail group of fewer than eight batches (the
// 64-lane path, where the simulator's output buffer is shared with the
// scalar re-checks): with MismatchRetries the attack must still recover
// the clean run's key.
func TestVerifyNoisyProbeAndTailGroup(t *testing.T) {
	locked, inst, h := tableIRowInstance(t)
	clean, err := Run(Options{Locked: locked.Circuit, Oracle: oracle.MustNewSim(h), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	batches := int((clean.TotalDIPs + 63) / 64)
	if tail := batches % 8; tail == 0 || batches < 8 {
		t.Fatalf("%d replay batches: want a full group and a tail group of fewer than 8", batches)
	}
	noisy := &laneFlipper{inner: oracle.MustNewSim(h)}
	res, err := Run(Options{Locked: locked.Circuit, Oracle: noisy, Seed: 11, MismatchRetries: 1})
	if err != nil {
		t.Fatalf("noisy attack failed: %v", err)
	}
	if !inst.IsCorrectCASKey(res.Key) {
		t.Fatal("noisy attack recovered a wrong key")
	}
	if !reflect.DeepEqual(res.Key, clean.Key) {
		t.Fatal("noisy attack recovered a different key than the clean run")
	}
	// Every Query64 was flipped: the probe and all replay batches.
	if noisy.calls != 1+batches {
		t.Fatalf("%d flipped Query64 answers, want 1 probe + %d replay batches", noisy.calls, batches)
	}
	// The replay re-queries each flipped lane 2·MismatchRetries+1 = 3
	// times and nothing else: a batch whose simulator output were read
	// after a re-check had overwritten it would adjudicate extra lanes.
	flipped := 2 * batches
	if clean.TotalDIPs%64 == 1 {
		flipped-- // the last batch has no lane 1
	}
	if want := 3 * flipped; noisy.replayScalar != want {
		t.Errorf("replay made %d scalar re-queries, want %d (3 per flipped lane)", noisy.replayScalar, want)
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
