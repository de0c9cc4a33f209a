package engine

import (
	"testing"

	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/sat"
	"repro/internal/synth"
)

// BenchmarkSessionDIPLoop measures the classic SAT attack's DIP loop on
// the engine alone: open a session on a fresh engine, then 32 rounds of
// FindDIP + oracle query + Constrain, over a CAS-locked 16-input,
// 120-gate synthetic host. Each op pays the miter encoding once and then
// the incremental solves and the per-DIP hashed encodings, so with
// -benchmem it tracks both the solver's and the encoder's cost.
func BenchmarkSessionDIPLoop(b *testing.B) {
	host, err := synth.Generate(synth.Config{Name: "sh", Inputs: 16, Outputs: 4, Gates: 120, Seed: 7000021})
	if err != nil {
		b.Fatal(err)
	}
	sch, _ := lock.SchemeByName("cas")
	locked, _, err := sch.Apply(host, 7000021)
	if err != nil {
		b.Fatal(err)
	}
	orc := oracle.MustNewSim(host)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(locked.Circuit, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		ses, err := e.OpenSession()
		if err != nil {
			b.Fatal(err)
		}
		for it := 0; it < 32; it++ {
			dip, st, err := ses.FindDIP()
			if err != nil || st != sat.Sat {
				b.Fatalf("iteration %d: FindDIP = %v, %v", it, st, err)
			}
			out, err := orc.Query(dip)
			if err != nil {
				b.Fatal(err)
			}
			if err := ses.Constrain(dip, out); err != nil {
				b.Fatal(err)
			}
		}
		ses.Close()
	}
}
