package oracle

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// flaky is a scripted inner oracle: it answers a fixed pattern, fails
// transiently for the first `transients` calls of each query, and can
// flip scripted bits on scripted attempts.
type flaky struct {
	inputs, outputs int
	calls           int
	transientFirst  int  // the first k calls fail transiently
	transientEvery  int  // every k-th call fails transiently (0 = never)
	hardFail        bool // non-transient failure on every call
	flipOnCall      map[int]uint64
}

func (f *flaky) NumInputs() int  { return f.inputs }
func (f *flaky) NumOutputs() int { return f.outputs }

func (f *flaky) Query(in []bool) ([]bool, error) {
	out, err := f.Query64(make([]uint64, f.inputs))
	if err != nil {
		return nil, err
	}
	res := make([]bool, f.outputs)
	for i := range res {
		res[i] = out[i]&1 != 0
	}
	return res, nil
}

func (f *flaky) Query64(in []uint64) ([]uint64, error) {
	f.calls++
	if f.hardFail {
		return nil, errors.New("scan chain burned out")
	}
	if f.calls <= f.transientFirst || (f.transientEvery > 0 && f.calls%f.transientEvery == 0) {
		return nil, fmt.Errorf("blip: %w", ErrTransient)
	}
	out := make([]uint64, f.outputs)
	for i := range out {
		out[i] = 0xAAAA5555AAAA5555
	}
	if m, ok := f.flipOnCall[f.calls]; ok {
		out[0] ^= m
	}
	return out, nil
}

func noSleep(time.Duration) {}

func TestResilientRetriesTransients(t *testing.T) {
	inner := &flaky{inputs: 4, outputs: 2, transientFirst: 2}
	r := NewResilient(inner, ResilientOptions{Retries: 3, Sleep: noSleep})
	out, err := r.Query64(make([]uint64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAAAA5555AAAA5555 {
		t.Fatalf("wrong answer %x", out[0])
	}
	if st := r.Stats(); st.Retries == 0 || st.SubQueries < 2 {
		t.Fatalf("stats did not record the retry: %+v", st)
	}
}

func TestResilientPermanentFailure(t *testing.T) {
	r := NewResilient(&flaky{inputs: 4, outputs: 1, hardFail: true},
		ResilientOptions{Retries: 3, Sleep: noSleep})
	_, err := r.Query64(make([]uint64, 4))
	var perm *PermanentError
	if !errors.As(err, &perm) || !errors.Is(err, ErrPermanent) {
		t.Fatalf("want PermanentError, got %v", err)
	}
	if perm.Attempts != 1 {
		t.Fatalf("non-transient failure retried: %d attempts", perm.Attempts)
	}

	// All-transient inner: the budget runs out and Attempts reflects it.
	r = NewResilient(&flaky{inputs: 4, outputs: 1, transientEvery: 1},
		ResilientOptions{Retries: 3, Sleep: noSleep})
	_, err = r.Query64(make([]uint64, 4))
	if !errors.As(err, &perm) {
		t.Fatalf("want PermanentError, got %v", err)
	}
	if perm.Attempts != 4 || !errors.Is(perm.Err, ErrTransient) {
		t.Fatalf("budget accounting wrong: %+v", perm)
	}
}

func TestResilientMajorityOutvotesFlips(t *testing.T) {
	// One of three votes carries flipped bits: the majority removes them.
	inner := &flaky{inputs: 4, outputs: 2, flipOnCall: map[int]uint64{2: 0x00FF}}
	r := NewResilient(inner, ResilientOptions{Votes: 3, Sleep: noSleep})
	out, err := r.Query64(make([]uint64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAAAA5555AAAA5555 || out[1] != 0xAAAA5555AAAA5555 {
		t.Fatalf("majority failed to denoise: %x %x", out[0], out[1])
	}
	if st := r.Stats(); st.VotesOverruled == 0 {
		t.Fatalf("overruled counter not incremented: %+v", st)
	}
}

func TestResilientVotesRoundedOdd(t *testing.T) {
	r := NewResilient(&flaky{inputs: 1, outputs: 1}, ResilientOptions{Votes: 4, Sleep: noSleep})
	if r.opts.Votes != 5 {
		t.Fatalf("Votes = %d, want 5", r.opts.Votes)
	}
}

func TestResilientBoolQueryMajority(t *testing.T) {
	inner := &flaky{inputs: 4, outputs: 2, flipOnCall: map[int]uint64{1: 1}}
	r := NewResilient(inner, ResilientOptions{Votes: 3, Sleep: noSleep})
	out, err := r.Query(make([]bool, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Bit 0 of word 0 is 1 in the clean answer; the call-1 flip cleared
	// it once, and the majority must restore it.
	if !out[0] {
		t.Fatal("majority lost the true bit")
	}
}

func TestResilientBackoffBounds(t *testing.T) {
	r := NewResilient(&flaky{inputs: 1, outputs: 1},
		ResilientOptions{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Sleep: noSleep})
	for attempt := 1; attempt <= 12; attempt++ {
		d := r.backoff(attempt)
		if d < time.Millisecond/2 || d > 12*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v outside [0.5ms, 12ms]", attempt, d)
		}
	}
}

// TestResilientAgainstSim wires the decorator over the real simulator
// oracle and checks transparency (no faults → identical answers).
func TestResilientAgainstSim(t *testing.T) {
	c := buildPlain()
	clean := MustNewSim(c)
	r := NewResilient(MustNewSim(c), ResilientOptions{Votes: 3, Sleep: noSleep})
	in := make([]uint64, c.NumInputs())
	for i := range in {
		in[i] = 0x123456789abcdef0 * uint64(i+1)
	}
	want, err := clean.Query64(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query64(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("resilient wrapper altered a clean oracle's answer at %d", i)
		}
	}
}
