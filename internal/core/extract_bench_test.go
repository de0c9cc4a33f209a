package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/lock"
	"repro/internal/synth"
)

// BenchmarkPreparedDiff measures the extraction hot loop on a 64-bit-key
// CAS cone (the kernel behind the paper's 2^32-pattern enumerations).
func BenchmarkPreparedDiff(b *testing.B) {
	host, err := synth.Generate(synth.Config{Name: "h", Inputs: 40, Outputs: 4, Gates: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	chain := lock.MustParseChain("2A-O-2(4A-O)-2(2A-O)-12A")
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	layout, err := DiscoverLayout(locked.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	ext, err := NewSimExtractor(locked.Circuit, layout, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	assign := PairAssign{A: make([]bool, 64), B: make([]bool, 64)}
	for _, pos := range layout.Key1Pos {
		assign.A[pos] = true
	}
	p, err := ext.prepare(assign)
	if err != nil {
		b.Fatal(err)
	}
	block := make([]uint64, 32)
	for i := 0; i < 32 && i < 6; i++ {
		block[i] = lanePattern(i)
	}
	b.ReportMetric(float64(p.prog.Len()), "ops")
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		block[7] = ^block[7]
		sink ^= p.diff(block)
	}
	_ = sink
	b.SetBytes(64 * 8)
}

// parallelBenchInstance locks a wide-chain instance sized so a full
// enumeration is substantial (2^22 patterns) but fits a benchmark
// iteration.
func parallelBenchInstance(b *testing.B) (*SimExtractor, PairAssign) {
	b.Helper()
	const n = 22
	host, err := synth.Generate(synth.Config{Name: "h", Inputs: n + 4, Outputs: 4, Gates: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	chain := make(lock.ChainConfig, n-1)
	for i := range chain {
		if i%4 == 2 {
			chain[i] = lock.ChainOr
		}
	}
	chain[n-2] = lock.ChainAnd
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	layout, err := DiscoverLayout(locked.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	ext, err := NewSimExtractor(locked.Circuit, layout, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	assign := PairAssign{A: make([]bool, locked.Circuit.NumKeys()), B: make([]bool, locked.Circuit.NumKeys())}
	for _, pos := range layout.Key1Pos {
		assign.A[pos] = true
	}
	return ext, assign
}

// BenchmarkSimExtractorParallel sweeps the shard worker count over a
// full 2^22-pattern DIP extraction — the speedup criterion workload.
// Run with -benchmem to see the per-extraction allocation cost of the
// worker pool.
func BenchmarkSimExtractorParallel(b *testing.B) {
	ext, assign := parallelBenchInstance(b)
	counts := []int{1, 2}
	if nc := runtime.NumCPU(); nc != 1 && nc != 2 {
		counts = append(counts, nc)
	}
	var want uint64
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			ext.SetWorkers(workers)
			b.ReportAllocs()
			b.ResetTimer()
			var dips *DIPSet
			for i := 0; i < b.N; i++ {
				var err error
				dips, err = ext.DIPs(assign)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Bit-identical results regardless of worker count.
			if want == 0 {
				want = dips.Count()
			} else if got := dips.Count(); got != want {
				b.Fatalf("workers=%d: %d DIPs, want %d", workers, got, want)
			}
			b.ReportMetric(float64(dips.Count()), "DIPs")
		})
	}
}
