package satattack

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/sat"
	"repro/internal/synth"
)

// TestSATCappedTrajectory pins the CDCL search of capped SAT attacks:
// the exact solver counters of fixed instances shaped like the
// benchmark's sat_capped op (a 16-input, 120-gate synthetic host locked
// with a SAT-resistant scheme, the DIP loop capped at 32 iterations).
// The counters are a fingerprint of every decision, propagation and
// conflict, so any change to variable numbering, clause order, watch
// order or the decision heap's layout moves them; a change that only
// makes the solver or the encoder cheaper must leave them exactly as
// they are. A deliberate change to the search updates the table. The
// solver only reads the context, so every context variant — none, a
// distant deadline, a live cancel — must leave the search untouched.
func TestSATCappedTrajectory(t *testing.T) {
	cases := []struct {
		scheme string
		seed   int64
		want   sat.Stats
	}{
		{"cas", 7000021, sat.Stats{Conflicts: 117, Decisions: 1870, Propagations: 31337, SolveCalls: 32}},
		{"antisat", 7007940, sat.Stats{Conflicts: 59, Decisions: 1727, Propagations: 25672, SolveCalls: 32}},
		{"sarlock", 7015859, sat.Stats{Conflicts: 27, Decisions: 1041, Propagations: 9711, SolveCalls: 32}},
		{"cas", 7023778, sat.Stats{Conflicts: 106, Decisions: 2114, Propagations: 33602, SolveCalls: 32}},
		{"antisat", 7031697, sat.Stats{Conflicts: 59, Decisions: 1450, Propagations: 27278, SolveCalls: 32}},
		{"sarlock", 7039616, sat.Stats{Conflicts: 26, Decisions: 994, Propagations: 8390, SolveCalls: 32}},
	}
	contexts := []struct {
		name string
		make func() (context.Context, context.CancelFunc)
	}{
		{"nil", func() (context.Context, context.CancelFunc) { return nil, func() {} }},
		{"timeout1h", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), time.Hour)
		}},
		{"cancel", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%d", tc.scheme, tc.seed), func(t *testing.T) {
			sch, ok := lock.SchemeByName(tc.scheme)
			if !ok {
				t.Fatalf("scheme %q not registered", tc.scheme)
			}
			host, err := synth.Generate(synth.Config{Name: "sh", Inputs: 16, Outputs: 4, Gates: 120, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			locked, _, err := sch.Apply(host, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, cc := range contexts {
				t.Run(cc.name, func(t *testing.T) {
					ctx, cancel := cc.make()
					defer cancel()
					res, err := Run(locked.Circuit, oracle.MustNewSim(host), Options{MaxIterations: 32, Context: ctx})
					if err != nil {
						t.Fatal(err)
					}
					if res.Completed || res.Iterations != 32 {
						t.Fatalf("completed=%v after %d iterations, want the 32-iteration cap", res.Completed, res.Iterations)
					}
					got := res.SolverStats
					if got.Conflicts != tc.want.Conflicts || got.Decisions != tc.want.Decisions ||
						got.Propagations != tc.want.Propagations || got.SolveCalls != tc.want.SolveCalls {
						t.Errorf("search moved: conflicts/decisions/propagations/solves = %d/%d/%d/%d, want %d/%d/%d/%d",
							got.Conflicts, got.Decisions, got.Propagations, got.SolveCalls,
							tc.want.Conflicts, tc.want.Decisions, tc.want.Propagations, tc.want.SolveCalls)
					}
				})
			}
		})
	}
}
