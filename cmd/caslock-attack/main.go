// Command caslock-attack mounts the paper's DIP-learning attack on a
// CAS-locked bench netlist, using a second netlist as the activated-chip
// oracle, and reports the recovered key and structure.
//
//	caslock-attack -locked locked.bench -oracle orig.bench
//	caslock-attack -locked mcas.bench -oracle orig.bench -mcas
//	caslock-attack -locked locked.bench -oracle orig.bench -noise 1e-3 -retries 4
//	caslock-attack -locked locked.bench -oracle orig.bench -timeout 30s
//	caslock-attack -locked locked.bench -oracle orig.bench -checkpoint run.ckpt
//	caslock-attack -locked locked.bench -oracle orig.bench -checkpoint run.ckpt -resume-from run.ckpt
//	caslock-attack -locked locked.bench -oracle orig.bench -progress -events-out run-events.ndjson
//	caslock-attack -locked locked.bench -oracle orig.bench -attack sat -satcap 500
//
// The default -attack dip runs the paper's DIP-learning pipeline with
// its full feature set (checkpointing, event streaming, M-CAS
// stripping, structure reporting). Any other registered attack (see
// internal/attack; e.g. sat, appsat, bypass) mounts generically against
// the same oracle stack and reports its proven outcome.
//
// Exit codes: 0 — key recovered (and SAT-proven unless -prove=false);
// 3 — deadline/budget hit, partial structure reported; 1 — attack ran
// but the key is wrong or an error occurred; 2 — usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// Telemetry state shared with the exit paths: the registry is nil unless
// one of -trace / -metrics-out / -debug-addr armed it, and the writers
// flush on every exit (success, failure and the partial exit-3 path).
var (
	tel        *telemetry.Registry
	tracePath  string
	metricsOut string
)

// ckptWriter is the attack's checkpoint writer, nil unless -checkpoint
// armed it. Every exit path closes it (via flushTelemetry) so the final
// observed progress is flushed to disk before the process ends.
var (
	ckptWriter    *checkpoint.Writer
	ckptCloseOnce sync.Once
)

func closeCheckpointer() {
	ckptCloseOnce.Do(func() {
		if ckptWriter != nil {
			ckptWriter.Close()
		}
	})
}

// Event-bus state shared with the exit paths: armed by -progress and/or
// -events-out. The bus carries the attack's lifecycle events; the
// tracker distills them into progress/ETA digests; the writer goroutine
// streams every event (including the tracker's progress digests) as
// NDJSON to -events-out.
var (
	evBus        *events.Bus
	evTrack      *events.Tracker
	evWriterDone chan struct{}
	evFinishOnce sync.Once
)

// armEvents starts the bus, the progress tracker and (optionally) the
// NDJSON writer. showProgress prints one digest line per update to
// stderr — phase, fraction and ETA — sourced from the estimator, so it
// works with or without checkpointing.
func armEvents(eventsOut string, showProgress bool) {
	evBus = events.New(events.Options{Telemetry: tel})
	var onProg func(events.Progress)
	if showProgress {
		onProg = func(p events.Progress) {
			eta := "—"
			if p.ETA > 0 {
				eta = p.ETA.Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr, "caslock-attack: %5.1f%%  %-9s  eta %s\n", p.Fraction*100, p.Phase, eta)
		}
	}
	evTrack = events.Track(evBus, time.Second, onProg)
	if eventsOut == "" {
		return
	}
	f, err := os.Create(eventsOut)
	fatalIf(err)
	sub := evBus.Subscribe(0)
	evWriterDone = make(chan struct{})
	go func() {
		defer close(evWriterDone)
		defer f.Close()
		for {
			evs := sub.Poll()
			for _, ev := range evs {
				f.Write(append(ev.MarshalNDJSON(), '\n'))
			}
			if len(evs) > 0 {
				continue
			}
			if sub.Closed() {
				f.Sync()
				return
			}
			<-sub.Wait()
		}
	}()
}

// finishEvents seals the event stream on every exit path: the tracker
// drains first (so done is the last event), the terminal done event
// records the run's disposition, and the NDJSON writer flushes before
// the process ends.
func finishEvents(state string) {
	evFinishOnce.Do(func() {
		if evBus == nil {
			return
		}
		evTrack.Close()
		evBus.Publish(events.Event{
			Type:     events.TypeDone,
			Fraction: 1,
			Fields:   map[string]string{"state": state},
		})
		evBus.Close()
		if evWriterDone != nil {
			<-evWriterDone
		}
	})
}

func main() {
	var (
		lockedPath = flag.String("locked", "", "locked netlist (.bench, key inputs named keyinput*)")
		oraclePath = flag.String("oracle", "", "original/activated netlist used as the oracle (.bench)")
		attackName = flag.String("attack", "dip", "attack to mount, by registry name ("+attack.Universe()+")")
		satCap     = flag.Int("satcap", 500, "SAT/AppSAT iteration cap (with -attack sat / appsat)")
		mcas       = flag.Bool("mcas", false, "treat the design as Mirrored CAS-Lock (SPS-strip the outer instance first)")
		seed       = flag.Int64("seed", 1, "attack sampling seed")
		prove      = flag.Bool("prove", true, "SAT-prove the recovered key against the oracle netlist")
		timeout    = flag.Duration("timeout", 0, "attack deadline (0 = none); on expiry the partial structure is printed and the exit code is 3")
		satWidth   = flag.Int("sat-width-limit", 0, "largest block width attacked with the SAT engine (0 = simulation, SAT only where simulation refuses the instance; a positive value pins the fixed rule)")
		retries    = flag.Int("retries", 0, "transient-failure retry budget of the resilient oracle decorator (0 = default)")
		noise      = flag.Float64("noise", 0, "inject this per-output-bit flip rate into the oracle (demo; arms majority voting)")
		votes      = flag.Int("votes", 0, "majority-vote repeats per oracle query (0 = auto: 5 when -noise > 0, else 1)")
		trace      = flag.String("trace", "", "write a Chrome-trace JSON of the attack's phase spans here (open in Perfetto / chrome://tracing)")
		metrics    = flag.String("metrics-out", "", "write a metrics snapshot on exit (.json = JSON snapshot, anything else = Prometheus text)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof/ on this address for the run's duration (e.g. :6060)")
		ckptPath   = flag.String("checkpoint", "", "write durable progress snapshots to this file (atomic replace; survives SIGKILL)")
		ckptEvery  = flag.String("checkpoint-every", "", "snapshot cadence: an event count (\"2000\") or a duration (\"2s\"); default 4096 events / 2s, whichever first")
		resumePath = flag.String("resume-from", "", "resume the attack from this snapshot file (refused unless netlist, oracle and options match)")
		oracleLat  = flag.Duration("oracle-latency", 0, "add this artificial latency to every oracle call (models a slow activated chip)")
		progress   = flag.Bool("progress", false, "log attack progress to stderr: phase, completed fraction and ETA from the event-stream estimator, plus stage/resume messages")
		eventsOut  = flag.String("events-out", "", "stream the attack's lifecycle events (phase transitions, DIP progress, crossover decision, checkpoints, progress digests, terminal done) to this file as NDJSON")
	)
	flag.Parse()
	if *lockedPath == "" || *oraclePath == "" || *noise < 0 || *noise >= 1 || *timeout < 0 || *satWidth < 0 || *oracleLat < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *ckptEvery != "" && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "caslock-attack: -checkpoint-every needs -checkpoint")
		os.Exit(2)
	}
	tracePath, metricsOut = *trace, *metrics
	if tracePath != "" || metricsOut != "" || *debugAddr != "" {
		tel = telemetry.New()
	}
	if *debugAddr != "" {
		dbg, err := telemetry.ServeDebug(*debugAddr, tel)
		fatalIf(err)
		defer dbg.Close()
		fmt.Printf("debug server listening on %s (/metrics, /healthz, /debug/pprof/)\n", dbg.URL())
	}
	locked := readBench(*lockedPath)
	original := readBench(*oraclePath)
	sim, err := oracle.NewSim(original)
	fatalIf(err)

	// Oracle stack: simulator → (optional) fault injector → resilient
	// decorator. The injector models a noisy and/or slow activated chip;
	// the decorator retries transients and majority-votes away bit flips.
	var orc oracle.Oracle = sim
	if *noise > 0 || *oracleLat > 0 {
		orc = faults.New(orc, faults.Config{FlipRate: *noise, TransientRate: *noise, Latency: *oracleLat, Seed: *seed, Telemetry: tel})
	}
	if *votes == 0 && *noise > 0 {
		*votes = 5
	}
	var resilient *oracle.Resilient
	if *noise > 0 || *retries > 0 || *votes > 1 {
		resilient = oracle.NewResilient(orc, oracle.ResilientOptions{
			Retries: *retries, Votes: *votes, Seed: *seed, Telemetry: tel,
		})
		orc = resilient
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	watchSignals(cancel)

	// Any non-default attack mounts generically through the attack
	// registry: same oracle stack, same deadline, Outcome verified by the
	// registry's SAT equivalence proof against the oracle netlist.
	if *attackName != "dip" {
		atk, ok := attack.AttackByName(*attackName)
		if !ok {
			fmt.Fprintf(os.Stderr, "caslock-attack: unknown attack %q (have: %s)\n", *attackName, attack.Universe())
			os.Exit(2)
		}
		start := time.Now()
		out := atk.Run(&attack.Context{
			Ctx: ctx, Locked: locked, Host: original, MCAS: *mcas,
			NewOracle: func() oracle.Oracle { return orc },
			SATCap:    *satCap, Seed: *seed,
			Telemetry: tel, SATWidthLimit: *satWidth,
		})
		fmt.Printf("%s: %s (%v)\n", atk.Label, out.Detail, time.Since(start).Round(time.Millisecond))
		if out.Key != nil {
			fmt.Printf("  key: %s\n", keyString(out.Key))
		}
		printOracleStats(resilient)
		flushTelemetry()
		if !out.Broken {
			os.Exit(1)
		}
		return
	}

	opts := core.Options{
		Context:       ctx,
		Oracle:        orc,
		Seed:          *seed,
		SATWidthLimit: *satWidth,
		Telemetry:     tel,
	}
	if *progress {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "caslock-attack: "+format+"\n", args...)
		}
	}
	if *progress || *eventsOut != "" {
		armEvents(*eventsOut, *progress)
		opts.Events = evBus
	}

	// Durability: the oracle netlist's bench.Hash pins snapshots to this
	// oracle (core validates the locked netlist and options itself, but
	// only this boundary can see through the Oracle interface).
	if *ckptPath != "" || *resumePath != "" {
		oracleHash, err := bench.Hash(original)
		fatalIf(err)
		if *resumePath != "" {
			snap, err := checkpoint.Load(*resumePath)
			fatalIf(err)
			if snap.OracleHash != "" && snap.OracleHash != oracleHash {
				fmt.Fprintln(os.Stderr, "caslock-attack: refusing to resume: snapshot was taken against a different oracle netlist")
				os.Exit(1)
			}
			opts.ResumeFrom = snap
		}
		if *ckptPath != "" {
			cfg := checkpoint.WriterConfig{Path: *ckptPath, OracleHash: oracleHash, Telemetry: tel}
			if *ckptEvery != "" {
				if d, derr := time.ParseDuration(*ckptEvery); derr == nil && d > 0 {
					cfg.Interval = d
				} else if n, nerr := strconv.Atoi(*ckptEvery); nerr == nil && n > 0 {
					cfg.EveryEvents = n
				} else {
					fmt.Fprintf(os.Stderr, "caslock-attack: -checkpoint-every %q is neither a positive event count nor a duration\n", *ckptEvery)
					os.Exit(2)
				}
			}
			w, err := checkpoint.NewWriter(cfg)
			fatalIf(err)
			ckptWriter = w
			opts.Checkpointer = w
		}
	}

	start := time.Now()
	var (
		res     *core.Result
		fullKey []bool
	)
	if *mcas {
		mres, err := core.RunMCAS(locked, orc, opts)
		exitIfFailed(err, resilient)
		res = mres.Inner
		fullKey = mres.Key
		fmt.Printf("outer instance removed (flip probability %.4g)\n", mres.RemovedFlipProb)
	} else {
		opts.Locked = locked
		res, err = core.Run(opts)
		exitIfFailed(err, resilient)
		fullKey = res.Key
	}
	elapsed := time.Since(start)
	closeCheckpointer() // flush the final snapshot before reporting
	finishEvents("done")

	fmt.Printf("attack succeeded in %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  case:            %d (%s-terminated)\n", res.Case, map[int]string{1: "AND/NAND", 2: "OR/NOR"}[res.Case])
	fmt.Printf("  chain:           %s\n", res.Chain)
	fmt.Printf("  key gates g:     %s\n", kgString(res.KeyGates1))
	fmt.Printf("  key gates ḡ:     %s\n", kgString(res.KeyGates2))
	fmt.Printf("  |I_l| (DIPs):    %d\n", res.TotalDIPs)
	fmt.Printf("  structured |A|:  %d\n", res.AlignedDIPs)
	fmt.Printf("  oracle queries:  %d\n", res.OracleQueries)
	fmt.Printf("  chip queries:    %d\n", sim.Queries())
	if ckptWriter != nil {
		fmt.Printf("  checkpoints:     %d written to %s\n", ckptWriter.Writes(), ckptWriter.Path())
	}
	fmt.Printf("  key:             %s\n", keyString(fullKey))
	printOracleStats(resilient)

	if *prove {
		ok, err := miter.ProveUnlockedHashed(locked, fullKey, original)
		fatalIf(err)
		if ok {
			fmt.Println("  verification:    SAT-PROVEN equivalent to the oracle netlist")
		} else {
			fmt.Println("  verification:    FAILED — key does not unlock the design")
			finishEvents("failed")
			flushTelemetry()
			os.Exit(1)
		}
	}
	flushTelemetry()
}

// watchSignals wires SIGINT/SIGTERM into the attack context: the first
// signal cancels it, so the run winds down through the ordinary
// PartialError path — partial structure printed, telemetry flushed,
// exit 3 — exactly as a -timeout expiry would. A second signal stops
// waiting for the wind-down: it flushes whatever telemetry exists and
// force-exits.
func watchSignals(cancel context.CancelFunc) {
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "caslock-attack: received %v, cancelling attack (send again to force-exit)\n", sig)
		cancel()
		<-sigCh
		fmt.Fprintln(os.Stderr, "caslock-attack: force exit")
		finishEvents("canceled")
		flushTelemetry()
		os.Exit(130)
	}()
}

// flushTelemetry writes the trace and metrics files, if requested. It
// runs on every exit path so an interrupted attack still leaves its
// partial trace behind. The checkpoint writer is closed first so its
// final snapshot (and write counters) land before the metrics do.
func flushTelemetry() {
	closeCheckpointer()
	if tel == nil {
		return
	}
	if tracePath != "" {
		if err := tel.WriteChromeTraceFile(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "caslock-attack: writing trace:", err)
		}
	}
	if metricsOut != "" {
		if err := tel.WriteMetricsFile(metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "caslock-attack: writing metrics:", err)
		}
	}
}

// exitIfFailed classifies an attack error: a PartialError reports the
// recovered structure and exits 3; everything else exits 1.
func exitIfFailed(err error, resilient *oracle.Resilient) {
	if err == nil {
		return
	}
	var pe *core.PartialError
	if errors.As(err, &pe) {
		fmt.Printf("attack interrupted during %s (cause: %v)\n", pe.Stage, pe.Err)
		fmt.Printf("  partial structure recovered:\n")
		fmt.Printf("    case:          %d\n", pe.Case)
		if pe.Chain != nil {
			fmt.Printf("    chain:         %s\n", pe.Chain)
		}
		if pe.KeyGates != nil {
			fmt.Printf("    key gates:     %s\n", kgString(pe.KeyGates))
		}
		fmt.Printf("    DIPs so far:   %d\n", pe.DIPs)
		fmt.Printf("    extractions:   %d\n", pe.Extractions)
		printOracleStats(resilient)
		finishEvents("partial")
		flushTelemetry()
		os.Exit(3)
	}
	fmt.Fprintln(os.Stderr, "caslock-attack:", err)
	finishEvents("failed")
	flushTelemetry()
	os.Exit(1)
}

func printOracleStats(r *oracle.Resilient) {
	if r == nil {
		return
	}
	st := r.Stats()
	fmt.Printf("  oracle resilience: %d sub-queries, %d retries, %d votes overruled\n",
		st.SubQueries, st.Retries, st.VotesOverruled)
}

func kgString(kg []netlist.GateType) string {
	parts := make([]string, len(kg))
	for i, t := range kg {
		parts[i] = t.String()
	}
	return strings.Join(parts, ",")
}

func keyString(key []bool) string {
	var sb strings.Builder
	for _, b := range key {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func readBench(path string) *netlist.Circuit {
	f, err := os.Open(path)
	fatalIf(err)
	defer f.Close()
	c, err := bench.Read(f, bench.ReadOptions{Name: path, KeyPrefix: bench.DefaultKeyPrefix})
	fatalIf(err)
	return c
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "caslock-attack:", err)
		os.Exit(1)
	}
}
