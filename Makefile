# Tier-1 flow: `make ci` is what a PR must keep green.
#
#   make build       compile everything
#   make test        unit + integration tests
#   make test-race   the test suite under the race detector (the
#                    enumeration engine and experiment runners are
#                    concurrent; data races are correctness bugs here)
#   make vet         go vet
#   make fmt-check   fail if any file needs gofmt
#   make fuzz-smoke  short coverage-guided fuzz of the bench parser
#                    (differential against a fixed-point reference), the
#                    compiled gate program vs the interpreted evaluator,
#                    the keyed miter vs activated-copy miters and
#                    exhaustive simulation, the checkpoint snapshot
#                    decoder, and the service's WAL journal replay
#   make trace-smoke end-to-end telemetry check: lock a seed circuit,
#                    attack it with -trace, and validate the Chrome
#                    trace (all five phase spans, wall-clock coverage);
#                    a noisy-oracle leg (-noise 1e-2) that must SAT-prove
#                    its key with at least one vote overruled;
#                    then a pinned SAT-regime leg (width-12 block,
#                    -sat-width-limit 12) that must SAT-prove its key
#                    on exactly one engine encoding and trace cleanly
#   make serve-smoke end-to-end service check: start caslock-served,
#                    submit over HTTP, poll, tracecheck the per-job
#                    trace, assert the resubmission is a zero-work
#                    cache hit, SIGTERM-drain cleanly
#   make signal-smoke SIGINT a running caslock-attack: exit code 3,
#                    partial structure printed, trace flushed and valid
#   make crash-smoke chaos harness: SIGKILL caslock-attack and
#                    caslock-served mid-attack at seeded-random points,
#                    restart/resume, and assert the resumed key is
#                    bit-identical with strictly fewer chip queries and
#                    the daemon's jobs survive the restart
#   make matrix-smoke end-to-end registry check: lockbench -list must
#                    enumerate both registries, a -schemes/-attacks
#                    sub-grid must hold the narrative verdicts, unknown
#                    names rejected
#   make events-smoke end-to-end observability check: caslock-attack
#                    -events-out NDJSON validated by tracecheck -events,
#                    live SSE job stream consumed to the terminal done
#                    event, Last-Event-ID resume, and the debug server's
#                    /dashboard + /metrics/history.json surfaces
#   make perfbench-test the benchmark's own tests (cd perfbench && go
#                    test .): every workload's counts must repeat
#                    exactly for a fixed seed, which pins the encoders
#                    and solvers as deterministic
#   make govulncheck govulncheck ./... when the tool is installed
#                    (skips with a notice otherwise — no network
#                    installs in CI; set GOVULNCHECK_REQUIRED=1 to turn
#                    the skip into a failure on runners that ship it)
#   make ci          build + vet + fmt-check + test + test-race +
#                    fuzz-smoke + trace-smoke + serve-smoke +
#                    signal-smoke + crash-smoke + matrix-smoke +
#                    events-smoke + perfbench-test + govulncheck
#                    (required automatically when installed)
#   make bench       tier-1 benchmarks with allocation reporting
#   make benchjson   rewrite BENCH_core.json, the performance record:
#                    perfbench runs of every workload in fresh processes
#                    (end-to-end medians and IQRs, the traced per-layer
#                    split), the Run512 machine-speed reference timed in
#                    the same session, the checkpoint and event-bus
#                    overhead pairs, and a delta against the committed
#                    record (raw and reference-normalized; deltas inside
#                    the committed IQR marked within_noise). ~5 minutes
#   make bench-compare  the same runs to a scratch file; fails if the
#                    gated workloads' summed op_p50_ms medians, normalized
#                    by the reference, regressed >20% vs the committed
#                    BENCH_core.json, or an overhead pair exceeds 5%

GO ?= go
FUZZTIME ?= 5s
SMOKEDIR ?= .trace-smoke
SERVEDIR ?= .serve-smoke
SIGDIR ?= .signal-smoke
CRASHDIR ?= .crash-smoke
EVDIR ?= .events-smoke
MATDIR ?= .matrix-smoke
MAXREGRESS ?= 0.20
# When the runner ships govulncheck, its absence elsewhere must not be
# silently skippable: auto-promote the scan to required.
GOVULNCHECK_REQUIRED ?= $(shell command -v govulncheck >/dev/null 2>&1 && echo 1)

.PHONY: build test test-race vet fmt-check fuzz-smoke trace-smoke serve-smoke signal-smoke crash-smoke matrix-smoke events-smoke perfbench-test govulncheck ci bench benchjson bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBenchRead -fuzztime $(FUZZTIME) ./internal/bench/
	$(GO) test -run '^$$' -fuzz FuzzProgramVsEval64 -fuzztime $(FUZZTIME) ./internal/netlist/
	$(GO) test -run '^$$' -fuzz FuzzKeyedMiter -fuzztime $(FUZZTIME) ./internal/miter/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/service/

trace-smoke:
	@rm -rf $(SMOKEDIR) && mkdir -p $(SMOKEDIR)
	$(GO) run ./cmd/casgen -inputs 12 -gates 60 -scheme cas -chain "2A-O-3A-O-A" \
		-out $(SMOKEDIR)/locked.bench -orig $(SMOKEDIR)/orig.bench
	$(GO) run ./cmd/caslock-attack -locked $(SMOKEDIR)/locked.bench -oracle $(SMOKEDIR)/orig.bench \
		-trace $(SMOKEDIR)/trace.json -metrics-out $(SMOKEDIR)/metrics.prom
	$(GO) run ./cmd/tracecheck -in $(SMOKEDIR)/trace.json
	$(GO) run ./cmd/caslock-attack -locked $(SMOKEDIR)/locked.bench -oracle $(SMOKEDIR)/orig.bench \
		-noise 1e-2 > $(SMOKEDIR)/noise.out
	@grep -q "SAT-PROVEN equivalent" $(SMOKEDIR)/noise.out || \
		{ echo "trace-smoke: noisy-oracle key not SAT-proven" >&2; cat $(SMOKEDIR)/noise.out >&2; exit 1; }
	@grep -Eq "oracle resilience: .* [1-9][0-9]* votes overruled" $(SMOKEDIR)/noise.out || \
		{ echo "trace-smoke: the majority vote overruled no noisy answer" >&2; cat $(SMOKEDIR)/noise.out >&2; exit 1; }
	$(GO) run ./cmd/casgen -inputs 14 -gates 70 -scheme cas -chain "5A-O-5A" \
		-out $(SMOKEDIR)/sat_locked.bench -orig $(SMOKEDIR)/sat_orig.bench
	$(GO) run ./cmd/caslock-attack -locked $(SMOKEDIR)/sat_locked.bench -oracle $(SMOKEDIR)/sat_orig.bench \
		-sat-width-limit 12 -trace $(SMOKEDIR)/sat_trace.json -metrics-out $(SMOKEDIR)/sat_metrics.prom \
		> $(SMOKEDIR)/sat.out
	@grep -q "SAT-PROVEN equivalent" $(SMOKEDIR)/sat.out || \
		{ echo "trace-smoke: SAT-regime key not SAT-proven" >&2; cat $(SMOKEDIR)/sat.out >&2; exit 1; }
	@grep -qx "engine_encodings_total 1" $(SMOKEDIR)/sat_metrics.prom || \
		{ echo "trace-smoke: SAT-regime attack did not encode exactly once" >&2; \
		  grep engine_encodings $(SMOKEDIR)/sat_metrics.prom >&2; exit 1; }
	$(GO) run ./cmd/tracecheck -in $(SMOKEDIR)/sat_trace.json
	@rm -rf $(SMOKEDIR)

serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh $(SERVEDIR)

signal-smoke:
	GO="$(GO)" sh scripts/signal_smoke.sh $(SIGDIR)

crash-smoke:
	GO="$(GO)" sh scripts/crash_smoke.sh $(CRASHDIR)

events-smoke:
	GO="$(GO)" sh scripts/events_smoke.sh $(EVDIR)

matrix-smoke:
	GO="$(GO)" sh scripts/matrix_smoke.sh $(MATDIR)

perfbench-test:
	cd perfbench && $(GO) test .

# Vulnerability scan, gated: the CI container has no network, so the
# tool cannot be installed on the fly. Runs when present, else skips
# loudly enough to notice — unless GOVULNCHECK_REQUIRED=1, which makes
# the absence itself a CI failure (for runners that are supposed to
# ship the tool).
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif [ "$(GOVULNCHECK_REQUIRED)" = "1" ]; then \
		echo "govulncheck required (GOVULNCHECK_REQUIRED=1) but not installed" >&2; exit 1; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

ci: build vet fmt-check test test-race fuzz-smoke trace-smoke serve-smoke signal-smoke crash-smoke matrix-smoke events-smoke perfbench-test govulncheck

bench:
	$(GO) test -run XXX -bench . -benchmem ./internal/core/ ./internal/bench/ ./internal/netlist/ ./internal/sat/ ./internal/cnf/ ./internal/engine/ .

benchjson:
	$(GO) run ./cmd/benchjson -o BENCH_core.json -baseline BENCH_core.json

bench-compare:
	@tmp=$$(mktemp /tmp/bench-compare-XXXXXX.json); \
	$(GO) run ./cmd/benchjson -o $$tmp -baseline BENCH_core.json -max-regress $(MAXREGRESS); \
	status=$$?; rm -f $$tmp; exit $$status
