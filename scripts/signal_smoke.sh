#!/bin/sh
# signal-smoke: SIGINT safety of caslock-attack.
#
# Launches an attack on a deliberately wide CAS instance (large DIP
# enumeration) with -trace armed, interrupts it mid-run with SIGINT,
# and asserts the contract of the signal handler: exit code 3 (the
# partial-structure path), and a trace file that exists and validates —
# an interrupted run only guarantees the root "attack" span, so
# tracecheck runs with -require attack.
#
# The attack runs twice: once with the default engine choice, and once
# pinned to the SAT regime (-sat-width-limit 24), where the interrupt
# must reach the CDCL solver's own context check mid-search.
#
# Usage: signal_smoke.sh <workdir>
set -eu

DIR=${1:?usage: signal_smoke.sh workdir}
GO=${GO:-go}
rm -rf "$DIR" && mkdir -p "$DIR/bin"

$GO build -o "$DIR/bin/" ./cmd/caslock-attack ./cmd/casgen ./cmd/tracecheck

# Width-24 block: ~16.7M patterns to enumerate, seconds of work — wide
# enough that the SIGINT below lands while the attack is still running.
"$DIR/bin/casgen" -inputs 26 -gates 80 -scheme cas \
	-chain "4A-O-6A-O-8A-O-4A" \
	-out "$DIR/locked.bench" -orig "$DIR/orig.bench"

# interrupt <leg> [attack flags...]: run the attack, SIGINT it after a
# second, and check exit code, partial report and trace.
interrupt() {
	leg=$1
	shift
	"$DIR/bin/caslock-attack" -locked "$DIR/locked.bench" -oracle "$DIR/orig.bench" \
		-trace "$DIR/$leg.trace.json" "$@" >"$DIR/$leg.out" 2>&1 &
	PID=$!
	trap 'kill "$PID" 2>/dev/null || true' EXIT

	sleep 1
	if ! kill -INT "$PID" 2>/dev/null; then
		echo "signal-smoke[$leg]: attack finished before the signal; widen the instance" >&2
		cat "$DIR/$leg.out" >&2
		exit 1
	fi
	rc=0
	wait "$PID" || rc=$?
	trap - EXIT

	if [ "$rc" != 3 ]; then
		echo "signal-smoke[$leg]: interrupted attack exited $rc, want 3" >&2
		cat "$DIR/$leg.out" >&2
		exit 1
	fi
	if ! grep -q "attack interrupted during" "$DIR/$leg.out"; then
		echo "signal-smoke[$leg]: no partial-structure report in output" >&2
		cat "$DIR/$leg.out" >&2
		exit 1
	fi
	if [ ! -s "$DIR/$leg.trace.json" ]; then
		echo "signal-smoke[$leg]: interrupted run left no trace file" >&2
		exit 1
	fi
	"$DIR/bin/tracecheck" -in "$DIR/$leg.trace.json" -require attack
	echo "signal-smoke[$leg]: OK (exit 3, partial structure reported, trace valid)"
}

interrupt auto
interrupt sat -sat-width-limit 24

rm -rf "$DIR"
