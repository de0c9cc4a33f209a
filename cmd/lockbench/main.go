// Command lockbench runs the full scheme-versus-attack matrix: every
// locking scheme in the repository against every attack, printing the
// survey table the paper's introduction narrates — with CAS-Lock
// resisting everything until the DIP-learning column.
//
//	lockbench
//	lockbench -inputs 14 -satcap 600
//	lockbench -workers 4          # bound the cell worker pool (0 = all cores)
//	lockbench -timeout 2m         # deadline for the whole grid
//	lockbench -noise 1e-3 -retries 4   # noisy oracles behind the resilient decorator
//	lockbench -trace grid.json -debug-addr :6060   # observe the grid live
//	lockbench -schemes cas,mcas -attacks dip,sat   # sub-grid by registry name
//	lockbench -list               # print the scheme and attack registries
//
// Rows and columns are enumerated from the scheme and attack registries
// (internal/lock, internal/attack); -list shows the valid names.
//
// Exit codes: 0 — grid completed; 3 — deadline hit (partial results are
// not printed: cells are all-or-nothing); 1 — error; 2 — usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lock"
	"repro/internal/telemetry"
)

// splitList turns a comma-separated flag value into a name slice (nil
// when the flag is unset).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// printRegistries renders the -list output: both registries with names,
// labels and descriptions.
func printRegistries(w *os.File) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SCHEMES (-schemes)")
	for _, s := range lock.Schemes() {
		fmt.Fprintf(tw, "  %s\t%s\t%s\n", s.Name, s.Label, s.Description)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "ATTACKS (-attacks)")
	for _, a := range attack.Attacks() {
		fmt.Fprintf(tw, "  %s\t%s\t%s\n", a.Name, a.Label, a.Description)
	}
	tw.Flush()
}

func main() {
	var (
		inputs    = flag.Int("inputs", 14, "host primary inputs")
		satCap    = flag.Int("satcap", 500, "SAT/AppSAT iteration cap")
		seed      = flag.Int64("seed", 1, "experiment seed")
		workers   = flag.Int("workers", 0, "cell worker count (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "deadline for the whole grid (0 = none)")
		retries   = flag.Int("retries", 0, "transient-failure retry budget of the resilient oracle decorator (0 = default)")
		satWidth  = flag.Int("sat-width-limit", 0, "largest block width attacked with the SAT engine in the DIP-learning cells (0 = simulation, SAT only where simulation refuses the instance)")
		noise     = flag.Float64("noise", 0, "per-output-bit oracle flip rate injected into every cell (arms majority voting)")
		trace     = flag.String("trace", "", "write a Chrome-trace JSON of the grid's attack spans here (open in Perfetto)")
		metrics   = flag.String("metrics-out", "", "write a metrics snapshot on exit (.json = JSON snapshot, anything else = Prometheus text)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof/ on this address for the run's duration (e.g. :6060)")
		schemes   = flag.String("schemes", "", "comma-separated scheme rows (registry names or labels; empty = all)")
		attacks   = flag.String("attacks", "", "comma-separated attack columns (registry names or labels; empty = all)")
		list      = flag.Bool("list", false, "print the scheme and attack registries and exit")
	)
	flag.Parse()
	if *list {
		printRegistries(os.Stdout)
		return
	}
	if *noise < 0 || *noise >= 1 || *timeout < 0 || *satWidth < 0 {
		flag.Usage()
		os.Exit(2)
	}
	var tel *telemetry.Registry
	if *trace != "" || *metrics != "" || *debugAddr != "" {
		tel = telemetry.New()
	}
	if *debugAddr != "" {
		dbg, err := telemetry.ServeDebug(*debugAddr, tel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockbench:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("debug server listening on %s (/metrics, /healthz, /debug/pprof/)\n", dbg.URL())
	}
	flush := func() {
		if tel == nil {
			return
		}
		if *trace != "" {
			if err := tel.WriteChromeTraceFile(*trace); err != nil {
				fmt.Fprintln(os.Stderr, "lockbench: writing trace:", err)
			}
		}
		if *metrics != "" {
			if err := tel.WriteMetricsFile(*metrics); err != nil {
				fmt.Fprintln(os.Stderr, "lockbench: writing metrics:", err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// First SIGINT/SIGTERM cancels the grid context — the matrix winds
	// down and the deadline exit path (code 3) runs with telemetry
	// flushed. A second signal force-exits after flushing.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "lockbench: received %v, cancelling grid (send again to force-exit)\n", sig)
		cancel()
		<-sigCh
		fmt.Fprintln(os.Stderr, "lockbench: force exit")
		flush()
		os.Exit(130)
	}()
	cells, err := experiments.RunMatrixOptions(experiments.MatrixOptions{
		Context:       ctx,
		HostInputs:    *inputs,
		SATCap:        *satCap,
		Seed:          *seed,
		Workers:       *workers,
		Noise:         *noise,
		Retries:       *retries,
		Telemetry:     tel,
		SATWidthLimit: *satWidth,
		Schemes:       splitList(*schemes),
		Attacks:       splitList(*attacks),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockbench:", err)
		flush()
		if errors.Is(err, core.ErrPartial) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	experiments.PrintMatrix(os.Stdout, cells)
	flush()
}
