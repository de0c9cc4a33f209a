#!/bin/sh
# crash-smoke: chaos harness for crash-safe attacks.
#
# Scenario A — caslock-attack: run a reference attack to completion,
# then SIGKILL a checkpointing run at a seeded-random point mid-attack
# (the SAT regime is pinned, so enumeration is the paper's slow
# one-solve-per-DIP loop), resume from the snapshot, and assert the
# resumed run seeds the crashed run's partial DIP set as blocking
# clauses and recovers the byte-identical key. The resumed trace must
# validate with the "resume" span present.
#
# Scenario B — caslock-served: start the daemon with -journal-dir,
# submit a long job (the same pinned SAT-regime attack), SIGKILL the
# daemon mid-attack, restart it on the same journal, and assert the job
# survives — GET /v1/attacks/{id} still resolves under the original ID,
# the job resumes from its checkpoint blob (daemon metrics), and
# completes with a key.
#
# The kill points are randomized but seeded: set CRASH_SEED to explore
# different crash timings, default 7 for reproducible CI.
#
# Usage: crash_smoke.sh <workdir>
set -eu

DIR=${1:?usage: crash_smoke.sh workdir}
GO=${GO:-go}
CRASH_SEED=${CRASH_SEED:-7}
rm -rf "$DIR" && mkdir -p "$DIR/bin"

$GO build -o "$DIR/bin/" ./cmd/caslock-attack ./cmd/caslock-served ./cmd/casgen ./cmd/tracecheck

fail() {
	echo "crash-smoke: $1" >&2
	shift
	for f in "$@"; do cat "$f" >&2 || true; done
	exit 1
}

# ---------------------------------------------------------------- A --
# Width-17 block (65536 DIPs): the simulation walk takes milliseconds,
# but the SAT regime pinned at width 17 makes one solve per DIP, about
# 18s on a 2-vCPU machine — a wide window for the SIGKILL, and the
# 100-event cadence checkpoints partial DIP sets inside it.
"$DIR/bin/casgen" -inputs 18 -gates 80 -scheme cas -chain "4A-O-6A-O-2A-O-A" \
	-out "$DIR/locked.bench" -orig "$DIR/orig.bench"
SAT_WIDTH=17

"$DIR/bin/caslock-attack" -locked "$DIR/locked.bench" -oracle "$DIR/orig.bench" \
	-sat-width-limit "$SAT_WIDTH" >"$DIR/ref.out" 2>&1 || fail "reference attack failed" "$DIR/ref.out"
ref_key=$(awk '$1 == "key:" {print $2}' "$DIR/ref.out")
[ -n "$ref_key" ] || fail "reference run printed no key line" "$DIR/ref.out"

kill_delay=$(awk -v seed="$CRASH_SEED" 'BEGIN { srand(seed); printf "%.2f", 1.2 + 1.2 * rand() }')
"$DIR/bin/caslock-attack" -locked "$DIR/locked.bench" -oracle "$DIR/orig.bench" \
	-sat-width-limit "$SAT_WIDTH" -checkpoint "$DIR/run.ckpt" -checkpoint-every 100 \
	>"$DIR/crash.out" 2>&1 &
PID=$!
trap 'kill -KILL "$PID" 2>/dev/null || true' EXIT
sleep "$kill_delay"
if ! kill -KILL "$PID" 2>/dev/null; then
	fail "attack finished before the SIGKILL at ${kill_delay}s; slow it down" "$DIR/crash.out"
fi
wait "$PID" 2>/dev/null || true
trap - EXIT
[ -s "$DIR/run.ckpt" ] || fail "SIGKILLed run (killed at ${kill_delay}s) left no checkpoint" "$DIR/crash.out"

"$DIR/bin/caslock-attack" -locked "$DIR/locked.bench" -oracle "$DIR/orig.bench" \
	-sat-width-limit "$SAT_WIDTH" -resume-from "$DIR/run.ckpt" -progress -trace "$DIR/resume-trace.json" \
	>"$DIR/resume.out" 2>"$DIR/resume.err" ||
	fail "resumed attack failed" "$DIR/resume.out" "$DIR/resume.err"
grep -q "resuming from checkpoint" "$DIR/resume.err" ||
	fail "resumed run never reported the snapshot" "$DIR/resume.err"
seeded=$(sed -n 's/.*replaying \([0-9][0-9]*\) DIPs as blocking clauses.*/\1/p' "$DIR/resume.err")
[ -n "$seeded" ] && [ "$seeded" -gt 0 ] ||
	fail "resumed run seeded no DIPs from the snapshot (killed at ${kill_delay}s)" "$DIR/resume.err"
res_key=$(awk '$1 == "key:" {print $2}' "$DIR/resume.out")
[ "$res_key" = "$ref_key" ] ||
	fail "resumed key $res_key differs from uninterrupted key $ref_key" "$DIR/resume.out"
# The resume span must be visible; phase spans count toward coverage but
# are conditional (a complete-snapshot resume skips re-enumeration).
"$DIR/bin/tracecheck" -in "$DIR/resume-trace.json" -require attack,resume \
	-coverage-extra enumerate,decode,algo1,algo2,verify,calibrate

echo "crash-smoke: scenario A OK (killed at ${kill_delay}s, $seeded DIPs seeded on resume, key identical)"

# ---------------------------------------------------------------- B --
# Scenario A's instance with the SAT regime pinned (~18s of work): long
# enough that the daemon dies mid-attack with checkpoints already on
# disk, short enough for the resumed job to complete inside the poll
# budget.
jq -n --rawfile locked "$DIR/locked.bench" --rawfile oracle "$DIR/orig.bench" --argjson width "$SAT_WIDTH" \
	'{locked: $locked, oracle: $oracle, seed: 7, sat_width_limit: $width}' >"$DIR/req.json"

wait_port() { # wait_port <stdout-file> → base URL
	base=""
	for _ in $(seq 1 100); do
		base=$(sed -n 's/^listening on \(http:[^ ]*\)$/\1/p' "$1" || true)
		[ -n "$base" ] && break
		sleep 0.1
	done
	[ -n "$base" ] || fail "daemon never announced its port" "$1"
}

"$DIR/bin/caslock-served" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -workers 1 \
	-journal-dir "$DIR/journal" >"$DIR/served1.out" 2>"$DIR/served1.err" &
SRV=$!
trap 'kill -KILL "$SRV" 2>/dev/null || true' EXIT
wait_port "$DIR/served1.out"

curl -fsS -X POST "$base/v1/attacks" --data-binary @"$DIR/req.json" >"$DIR/submit.json"
id=$(jq -r .id "$DIR/submit.json")
[ -n "$id" ] && [ "$id" != null ] || fail "submission returned no job id" "$DIR/submit.json"

# Let the attack run long enough to journal its start and land at least
# one checkpoint (event-quota cadence fires well before this), then
# murder the daemon.
kill_delay2=$(awk -v seed="$CRASH_SEED" 'BEGIN { srand(seed + 1); printf "%.2f", 2.2 + 0.8 * rand() }')
sleep "$kill_delay2"
state=$(curl -fsS "$base/v1/attacks/$id" | jq -r .state)
[ "$state" = running ] || fail "job was $state (not running) at the kill point ${kill_delay2}s" "$DIR/served1.err"
kill -KILL "$SRV"
wait "$SRV" 2>/dev/null || true
trap - EXIT
ls "$DIR/journal/cas/"ck-*.bin >/dev/null 2>&1 || fail "daemon died without a checkpoint blob" "$DIR/served1.err"

"$DIR/bin/caslock-served" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -workers 1 \
	-journal-dir "$DIR/journal" >"$DIR/served2.out" 2>"$DIR/served2.err" &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT
wait_port "$DIR/served2.out"
dbg=""
for _ in $(seq 1 100); do
	dbg=$(sed -n 's/.*debug server listening on \(http:[^ ]*\) .*/\1/p' "$DIR/served2.err" || true)
	[ -n "$dbg" ] && break
	sleep 0.1
done
[ -n "$dbg" ] || fail "restarted daemon has no debug server" "$DIR/served2.err"

# The job must have survived the crash under its original ID.
state=$(curl -fsS "$base/v1/attacks/$id" | jq -r .state) ||
	fail "GET /v1/attacks/$id failed after restart" "$DIR/served2.err"
for _ in $(seq 1 1200); do
	state=$(curl -fsS "$base/v1/attacks/$id" | jq -r .state)
	case "$state" in done | partial | failed | canceled) break ;; esac
	sleep 0.1
done
[ "$state" = done ] || fail "replayed job $id ended in state $state" "$DIR/served2.err"
key=$(curl -fsS "$base/v1/attacks/$id/result" | jq -r .result.key)
[ -n "$key" ] && [ "$key" != null ] || fail "replayed job has no key" "$DIR/served2.err"

metrics=$(curl -fsS "$dbg/metrics")
echo "$metrics" | awk '$1 ~ /^journal_replayed_total/ && $2 > 0 { found = 1 } END { exit !found }' ||
	fail "restarted daemon replayed no journal records" "$DIR/served2.err"
resumed=$(echo "$metrics" | awk '$1 == "journal_resumed_from_checkpoint_total" {print $2}')
[ -n "$resumed" ] && [ "$resumed" -ge 1 ] ||
	fail "job did not resume from its checkpoint blob (journal_resumed_from_checkpoint_total=$resumed)" "$DIR/served2.err"

kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
trap - EXIT
[ "$rc" = 0 ] || fail "restarted daemon exited $rc on graceful shutdown" "$DIR/served2.err"

echo "crash-smoke: scenario B OK (daemon killed at ${kill_delay2}s, job $id survived restart, resumed from checkpoint, key recovered)"
rm -rf "$DIR"
