// Command dipcount evaluates Lemma 2's closed form for a CAS-Lock chain
// configuration and, optionally, verifies it empirically by locking a
// synthetic host and extracting the DIP set.
//
//	dipcount -chain "A-O-2A-O-2A-O-2A-O-2A-O-A"
//	dipcount -chain "2A-O-A" -verify
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
)

func main() {
	var (
		chainCfg = flag.String("chain", "", "chain configuration, e.g. \"A-O-2A-O-A\" or \"2(4A-O)-12A\"")
		verify   = flag.Bool("verify", false, "lock a synthetic host and measure the DIP set (block width ≤ 26)")
		seed     = flag.Int64("seed", 1, "seed for -verify")
	)
	flag.Parse()
	if *chainCfg == "" {
		flag.Usage()
		os.Exit(2)
	}
	chain, err := lock.ParseChain(*chainCfg)
	fatalIf(err)
	n := chain.NumInputs()
	fmt.Printf("chain:          %s\n", chain)
	fmt.Printf("block width:    %d inputs (|K| = %d)\n", n, 2*n)
	fmt.Printf("terminator:     %s\n", chain.Terminator())
	fmt.Printf("OR positions:   %v (gate indices)\n", chain.ORPositions())
	fmt.Printf("Lemma 2 #DIPs:  %d\n", core.MaxDIPs(chain))
	if chain.Terminator() == lock.ChainOr {
		dual := chain.Dual()
		fmt.Printf("dual chain:     %s (miter-visible count %d)\n", dual, core.MaxDIPs(dual))
	}
	if !*verify {
		return
	}
	if n > 26 {
		fatalIf(fmt.Errorf("-verify limited to 26 block inputs"))
	}
	host, err := synth.Generate(synth.Config{Name: "h", Inputs: n + 2, Outputs: 3, Gates: 50, Seed: *seed})
	fatalIf(err)
	kg := make([]netlist.GateType, n)
	for i := range kg {
		kg[i] = netlist.Xor
	}
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{
		Chain: chain, KeyGates1: kg, KeyGates2: kg, Seed: *seed,
	})
	fatalIf(err)
	res, err := core.Run(core.Options{Locked: locked.Circuit, Oracle: oracle.MustNewSim(host), Seed: *seed})
	fatalIf(err)
	fmt.Printf("measured |I_l|: %d (aligned key-gate instance)\n", res.TotalDIPs)
	fmt.Printf("structured |A|: %d\n", res.AlignedDIPs)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dipcount:", err)
		os.Exit(1)
	}
}
