// Command caslock-served runs the DIP-learning attack as a service: a
// long-lived HTTP daemon that accepts locked-netlist jobs, executes
// them on a bounded worker pool, and answers repeated submissions from
// a content-addressed result cache (identical in-flight jobs run once;
// a byte-identical resubmission of a finished job costs zero oracle or
// SAT queries).
//
//	caslock-served -addr :8080
//	caslock-served -addr :8080 -workers 4 -queue 32 -debug-addr :6060
//
//	curl -X POST :8080/v1/attacks -d '{"locked":"...","oracle":"..."}'
//	curl :8080/v1/attacks/j-000001            # status
//	curl :8080/v1/attacks/j-000001/result     # recovered key + stats
//	curl :8080/v1/attacks/j-000001/trace      # per-job span tree (Perfetto)
//	curl -X DELETE :8080/v1/attacks/j-000001  # cancel
//
// The first SIGINT/SIGTERM drains gracefully (stop accepting, cancel
// running attacks, flush); a second signal force-exits. Exit codes:
// 0 — clean shutdown; 1 — serve error; 2 — usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// drainTimeout bounds the graceful HTTP drain after the first signal.
const drainTimeout = 5 * time.Second

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address for the job API")
		workers    = flag.Int("workers", 2, "concurrent attack executions")
		queueDepth = flag.Int("queue", 16, "admitted-but-not-started job bound (full queue → 429)")
		cacheSize  = flag.Int("cache", 128, "content-addressed result cache capacity, in jobs")
		maxWidth   = flag.Int("max-width", core.MaxBlockWidth, "largest admitted CAS block width")
		maxTimeout = flag.Duration("max-timeout", 10*time.Minute, "cap (and default) for per-job attack deadlines (0 = none)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof/ on this address (e.g. :6060)")
		journalDir = flag.String("journal-dir", "", "durability directory: WAL-journal every job and replay it on boot (empty = in-memory only)")
		quiet      = flag.Bool("quiet", false, "suppress per-job log lines")
	)
	flag.Parse()
	if *workers < 1 || *queueDepth < 1 || *maxTimeout < 0 || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "caslock-served: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	reg := telemetry.New()
	svc, err := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheSize:      *cacheSize,
		MaxBlockWidth:  *maxWidth,
		MaxTimeout:     *maxTimeout,
		DefaultTimeout: *maxTimeout,
		Registry:       reg,
		Log:            logf,
		JournalDir:     *journalDir,
	})
	if err != nil {
		logger.Fatalf("service: %v", err)
	}

	var dbg *telemetry.DebugServer
	if *debugAddr != "" {
		var err error
		dbg, err = telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			logger.Fatalf("debug server: %v", err)
		}
		logger.Printf("debug server listening on %s (/metrics, /healthz, /debug/pprof/)", dbg.URL())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Printf("attack service listening on http://%s (POST /v1/attacks)", ln.Addr())
	fmt.Printf("listening on http://%s\n", ln.Addr())

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	exitCode := 0
	select {
	case sig := <-sigCh:
		logger.Printf("received %v: draining (send the signal again to force-exit)", sig)
		go func() {
			s := <-sigCh
			logger.Printf("received %v again: forcing exit", s)
			os.Exit(130)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("drain: %v (closing hard)", err)
			srv.Close()
		}
		cancel()
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			exitCode = 1
		}
	}
	// Cancel every queued and running attack, wait for the workers.
	svc.Close()
	if dbg != nil {
		if err := dbg.Close(); err != nil {
			logger.Printf("debug server close: %v", err)
		}
	}
	logger.Printf("shut down cleanly")
	os.Exit(exitCode)
}
