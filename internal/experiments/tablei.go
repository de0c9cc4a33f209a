// Package experiments wires the library into the paper's evaluation: it
// regenerates Table I and the analytical claims (Lemma 1, Lemma 2,
// attack complexity, baseline contrasts), producing the rows the paper
// reports. The benchmark harness (bench_test.go), the CLI tools and the
// examples all run experiments through this package so every surface
// reports identical numbers.
package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// TableIRow is one row of the paper's Table I.
type TableIRow struct {
	// Benchmark names the ISCAS-85 host profile.
	Benchmark string
	// KeyBits is the total key length (two blocks of KeyBits/2).
	KeyBits int
	// Chain is the g_cas chain configuration string.
	Chain string
	// PaperDIPs is the DIP count printed in the paper.
	PaperDIPs uint64
	// Note records a known discrepancy between the printed row and what
	// the configuration mathematically produces (see DESIGN.md).
	Note string
}

// TableI32 reproduces the |K| = 32-bit half of Table I. The paper's c432
// row prints a 12-gate config next to the 18 725 count that requires the
// 15-gate config of the c880 row, so both rows use the latter.
var TableI32 = []TableIRow{
	{Benchmark: "c432", KeyBits: 32, Chain: "A-O-2A-O-2A-O-2A-O-2A-O-A", PaperDIPs: 18725,
		Note: "paper prints a 12-gate config; the 15-gate config shown matches the printed count"},
	{Benchmark: "c880", KeyBits: 32, Chain: "A-O-2A-O-2A-O-2A-O-2A-O-A", PaperDIPs: 18725},
	{Benchmark: "c1908", KeyBits: 32, Chain: "2A-O-5A-O-2A-2O-2A", PaperDIPs: 12089,
		Note: "config yields 12 809; the printed 12 089 is a digit transposition"},
	{Benchmark: "c2670", KeyBits: 32, Chain: "O-6A-O-5A-O-A", PaperDIPs: 16643},
	{Benchmark: "c3540", KeyBits: 32, Chain: "2A-O-5A-O-2A-2O-2A", PaperDIPs: 12089,
		Note: "config yields 12 809; the printed 12 089 is a digit transposition"},
	{Benchmark: "c5315", KeyBits: 32, Chain: "14A-O", PaperDIPs: 32769,
		Note: "OR-terminated: the miter-visible count is 32 767; the paper prints Lemma 2's primal-chain value"},
	{Benchmark: "c6288", KeyBits: 32, Chain: "3A-2O-3A-2O-3A-O-A", PaperDIPs: 17969},
	{Benchmark: "c7552", KeyBits: 32, Chain: "3A-2O-3A-2O-3A-O-A", PaperDIPs: 17969},
}

// TableI64 reproduces the |K| = 64-bit half of Table I (only hosts with
// more than 64 inputs are locked, as in the paper).
var TableI64 = []TableIRow{
	{Benchmark: "c2670", KeyBits: 64, Chain: "2A-O-2(4A-O)-2(2A-O)-12A", PaperDIPs: 598281},
	{Benchmark: "c5315", KeyBits: 64, Chain: "4A-O-3(5A-O)-8A", PaperDIPs: 8521761},
	{Benchmark: "c7552", KeyBits: 64, Chain: "2A-O-9A-O-4A-O-2A-O-10A", PaperDIPs: 2367497,
		Note: "paper prints 2A-O-9A-O-4A-O-3A-O-9A, which yields 4 464 649; this chain matches the printed count"},
	{Benchmark: "c5315", KeyBits: 64, Chain: "2A-O-2(4A-O)-2(2A-O)-12A", PaperDIPs: 598281},
	{Benchmark: "c2670", KeyBits: 64, Chain: "4A-O-3(5A-O)-8A", PaperDIPs: 8521761},
	{Benchmark: "c7552", KeyBits: 64, Chain: "2A-O-2(4A-O)-2(2A-O)-12A", PaperDIPs: 598281},
	{Benchmark: "c2670", KeyBits: 64, Chain: "2A-O-9A-O-4A-O-2A-O-10A", PaperDIPs: 2367497,
		Note: "chain adjusted to match the printed count (see c7552 row)"},
	{Benchmark: "c5315", KeyBits: 64, Chain: "2A-O-9A-O-4A-O-2A-O-10A", PaperDIPs: 2367497,
		Note: "chain adjusted to match the printed count (see c7552 row)"},
}

// TableIResult is the measured counterpart of a TableIRow.
type TableIResult struct {
	Row           TableIRow
	MeasuredDIPs  uint64 // |I_l| of the successful extraction
	AlignedDIPs   uint64 // |A|, the Lemma-2 quantity
	ChainOK       bool   // recovered chain matches the instance (or its dual)
	KeyRecovered  bool   // attack returned a key the instance accepts
	KeyProven     bool   // SAT-proved equivalent to the original (if requested)
	AttackTime    time.Duration
	OracleQueries uint64
	HostGates     int
}

// TableIOptions tunes a row run.
type TableIOptions struct {
	// Context bounds the run: a deadline or cancellation propagates into
	// the attack pipeline, which returns core.ErrPartial with whatever
	// structure it had recovered. Nil means context.Background().
	Context context.Context
	// Seed drives host generation, key-gate choice and attack sampling.
	Seed int64
	// Prove runs the SAT equivalence proof of the recovered key.
	Prove bool
	// MatchPaperRegime locks with equal key-gate polarities in both
	// blocks — the aligned regime whose DIP counts Table I prints. When
	// false the polarities are independent random, exercising the
	// general attack path.
	MatchPaperRegime bool
	// Workers bounds both the row pool of RunTableIRows and the shard
	// workers of each row's simulation extractor (≤ 0 means GOMAXPROCS).
	Workers int
	// Telemetry, when non-nil, instruments the row's attack (phase spans,
	// oracle/SAT/enumeration counters) and times AttackTime from a
	// "tablei_row" span on the same clock.
	Telemetry *telemetry.Registry
}

// RunTableIRow locks a synthetic host with the row's configuration and
// mounts the DIP-learning attack.
func RunTableIRow(row TableIRow, opts TableIOptions) (*TableIResult, error) {
	chain, err := lock.ParseChain(row.Chain)
	if err != nil {
		return nil, err
	}
	n := chain.NumInputs()
	if n*2 != row.KeyBits {
		return nil, fmt.Errorf("experiments: chain %q implies %d key bits, row says %d", row.Chain, 2*n, row.KeyBits)
	}
	profile, err := synth.ProfileByName(row.Benchmark)
	if err != nil {
		return nil, err
	}
	host, err := synth.Generate(synth.FromProfile(profile, opts.Seed))
	if err != nil {
		return nil, err
	}
	casOpts := lock.CASOptions{Chain: chain, Seed: opts.Seed + 1}
	if opts.MatchPaperRegime {
		kg := randomKeyGates(n, opts.Seed+2)
		casOpts.KeyGates1 = kg
		casOpts.KeyGates2 = append([]netlist.GateType(nil), kg...)
	}
	locked, inst, err := lock.ApplyCAS(host, casOpts)
	if err != nil {
		return nil, err
	}
	orc, err := oracle.NewSim(host)
	if err != nil {
		return nil, err
	}

	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.New()
	}
	sp := tel.StartSpan("tablei_row")
	sp.SetArg("benchmark", row.Benchmark)
	sp.SetArg("chain", row.Chain)
	res, err := core.Run(core.Options{
		Context:   opts.Context,
		Locked:    locked.Circuit,
		Oracle:    orc,
		Seed:      opts.Seed + 3,
		Workers:   opts.Workers,
		Telemetry: tel,
	})
	elapsed := sp.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: attack on %s/%s failed: %w", row.Benchmark, row.Chain, err)
	}
	out := &TableIResult{
		Row:           row,
		MeasuredDIPs:  res.TotalDIPs,
		AlignedDIPs:   res.AlignedDIPs,
		AttackTime:    elapsed,
		OracleQueries: res.OracleQueries,
		KeyRecovered:  inst.IsCorrectCASKey(res.Key),
		ChainOK:       res.Chain.Equal(chain) || res.Chain.Equal(dual(chain)),
	}
	stats, err := host.ComputeStats()
	if err != nil {
		return nil, err
	}
	out.HostGates = stats.LogicGates
	if opts.Prove {
		ok, err := miter.ProveUnlockedHashed(locked.Circuit, res.Key, host)
		if err != nil {
			return nil, err
		}
		out.KeyProven = ok
	}
	return out, nil
}

func randomKeyGates(n int, seed int64) []netlist.GateType {
	out := make([]netlist.GateType, n)
	state := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if state&1 == 0 {
			out[i] = netlist.Xor
		} else {
			out[i] = netlist.Xnor
		}
	}
	return out
}

func dual(c lock.ChainConfig) lock.ChainConfig {
	out := make(lock.ChainConfig, len(c))
	for i, g := range c {
		if g == lock.ChainAnd {
			out[i] = lock.ChainOr
		} else {
			out[i] = lock.ChainAnd
		}
	}
	return out
}

// PrintTableI writes results in the paper's row format.
func PrintTableI(w io.Writer, results []*TableIResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\t|K|\tg_cas chain\tpaper #DIPs\tmeasured #DIPs\tkey recovered\ttime")
	for _, r := range results {
		recovered := "no"
		if r.KeyRecovered {
			recovered = "yes"
			if r.KeyProven {
				recovered = "yes (SAT-proven)"
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%s\t%v\n",
			r.Row.Benchmark, r.Row.KeyBits, r.Row.Chain, r.Row.PaperDIPs,
			r.MeasuredDIPs, recovered, r.AttackTime.Round(time.Millisecond))
	}
	tw.Flush()
}
