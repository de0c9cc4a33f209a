#!/bin/sh
# events-smoke: end-to-end check of the live-observability surfaces.
#
# CLI side: runs caslock-attack with -events-out and -progress, then
# validates the NDJSON event stream with tracecheck -events (seq
# monotone, phases nested, every dip_progress labelled with the
# innermost open phase, per-round DIP monotonicity, terminal done) and
# checks that the unpinned regime rule chose the simulation extractor
# (one crossover event, engine sim, reason default). A second CLI leg pins the SAT regime (-sat-width-limit 12 on
# a 14-input instance), so the stream also carries what the SAT
# extractor and its engine publish through the shared run environment.
# Daemon side: starts caslock-served, submits a job, consumes
# GET /v1/attacks/{id}/events live over SSE until the server closes
# the stream, asserts the final frame is the terminal done event,
# re-reads the stream with Last-Event-ID from a mid-stream frame and
# asserts the replay starts past it and still ends in done, and checks
# that the debug server serves /dashboard (self-contained HTML) and
# /metrics/history.json (parseable, carrying sampled series).
#
# Usage: events_smoke.sh <workdir>
set -eu

DIR=${1:?usage: events_smoke.sh workdir}
GO=${GO:-go}
rm -rf "$DIR" && mkdir -p "$DIR/bin"

$GO build -o "$DIR/bin/" ./cmd/caslock-served ./cmd/caslock-attack ./cmd/casgen ./cmd/tracecheck

"$DIR/bin/casgen" -inputs 12 -gates 60 -scheme cas -chain "2A-O-3A" \
	-out "$DIR/locked.bench" -orig "$DIR/orig.bench"

# --- CLI: -events-out NDJSON + estimator-driven -progress ------------
"$DIR/bin/caslock-attack" -locked "$DIR/locked.bench" -oracle "$DIR/orig.bench" \
	-progress -events-out "$DIR/events.ndjson" >"$DIR/attack.out" 2>"$DIR/attack.err"
"$DIR/bin/tracecheck" -events "$DIR/events.ndjson"
if ! grep -q 'eta' "$DIR/attack.err"; then
	echo "events-smoke: -progress printed no estimator digests" >&2
	cat "$DIR/attack.err" >&2
	exit 1
fi
# Unpinned, the regime rule runs the simulation extractor: exactly one
# crossover event, engine sim, reason default.
if ! jq -e -s '[.[] | select(.type == "crossover")] |
	length == 1 and .[0].fields.engine == "sim" and .[0].fields.reason == "default"' \
	"$DIR/events.ndjson" >/dev/null; then
	echo "events-smoke: default stream lacks exactly one sim/default crossover event" >&2
	exit 1
fi

# --- CLI, SAT regime: the bus reaches the SAT extractor and engine -----
"$DIR/bin/casgen" -inputs 14 -gates 70 -scheme cas -chain "5A-O-5A" \
	-out "$DIR/sat_locked.bench" -orig "$DIR/sat_orig.bench"
"$DIR/bin/caslock-attack" -locked "$DIR/sat_locked.bench" -oracle "$DIR/sat_orig.bench" \
	-sat-width-limit 12 -events-out "$DIR/sat_events.ndjson" >"$DIR/sat_attack.out" 2>"$DIR/sat_attack.err"
"$DIR/bin/tracecheck" -events "$DIR/sat_events.ndjson"
if ! jq -e -s 'any(.type == "crossover" and .fields.engine == "sat") and
	any(.type == "dip_progress")' "$DIR/sat_events.ndjson" >/dev/null; then
	echo "events-smoke: SAT-regime stream lacks a sat crossover or dip_progress event" >&2
	exit 1
fi

# --- daemon: SSE stream, resume, dashboard ---------------------------
"$DIR/bin/caslock-served" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -workers 2 \
	>"$DIR/served.out" 2>"$DIR/served.err" &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT

base=""
dbg=""
for _ in $(seq 1 100); do
	base=$(sed -n 's/^listening on \(http:[^ ]*\)$/\1/p' "$DIR/served.out" || true)
	dbg=$(sed -n 's/.*debug server listening on \(http:[^ ]*\) .*/\1/p' "$DIR/served.err" || true)
	[ -n "$base" ] && [ -n "$dbg" ] && break
	sleep 0.1
done
if [ -z "$base" ] || [ -z "$dbg" ]; then
	echo "events-smoke: daemon never announced its ports" >&2
	cat "$DIR/served.err" >&2
	exit 1
fi

jq -n --rawfile locked "$DIR/locked.bench" --rawfile oracle "$DIR/orig.bench" \
	'{locked: $locked, oracle: $oracle, seed: 7}' >"$DIR/req.json"

# Submit, then immediately attach to the live stream: the server holds
# the connection open and closes it after the terminal done event, so
# a bounded curl that exits 0 proves both delivery and stream close.
curl -fsS -X POST "$base/v1/attacks" --data-binary @"$DIR/req.json" >"$DIR/submit.json"
id=$(jq -r .id "$DIR/submit.json")
curl -fsSN --max-time 120 "$base/v1/attacks/$id/events" >"$DIR/stream.sse"

# The SSE data lines are exactly the NDJSON event encoding; tracecheck
# re-validates the full invariant set on what actually went over HTTP.
sed -n 's/^data: //p' "$DIR/stream.sse" >"$DIR/stream.ndjson"
"$DIR/bin/tracecheck" -events "$DIR/stream.ndjson"
last_type=$(sed -n 's/^event: //p' "$DIR/stream.sse" | tail -1)
if [ "$last_type" != done ]; then
	echo "events-smoke: stream ended with \"$last_type\", want done" >&2
	exit 1
fi

# Last-Event-ID resume: replay from a mid-stream frame must start
# strictly past it and still end in done.
nframes=$(sed -n 's/^id: //p' "$DIR/stream.sse" | wc -l)
mid=$(sed -n 's/^id: //p' "$DIR/stream.sse" | sed -n "$((nframes / 2))p")
curl -fsSN --max-time 60 -H "Last-Event-ID: $mid" \
	"$base/v1/attacks/$id/events" >"$DIR/resume.sse"
first=$(sed -n 's/^id: //p' "$DIR/resume.sse" | head -1)
if [ -z "$first" ] || [ "$first" -le "$mid" ]; then
	echo "events-smoke: resume after id $mid replayed id \"$first\"" >&2
	exit 1
fi
last_type=$(sed -n 's/^event: //p' "$DIR/resume.sse" | tail -1)
if [ "$last_type" != done ]; then
	echo "events-smoke: resumed stream ended with \"$last_type\", want done" >&2
	exit 1
fi

# Dashboard: one self-contained page, no external fetches; history:
# parseable JSON whose series arrays align with the time column.
curl -fsS "$dbg/dashboard" >"$DIR/dashboard.html"
grep -q '<!DOCTYPE html>' "$DIR/dashboard.html"
if grep -Eq 'src=|https?://' "$DIR/dashboard.html"; then
	echo "events-smoke: dashboard references external resources" >&2
	exit 1
fi
curl -fsS "$dbg/metrics/history.json" >"$DIR/history.json"
jq -e '(.t | length) > 0' "$DIR/history.json" >/dev/null
tlen=$(jq '.t | length' "$DIR/history.json")
bad=$(jq --argjson n "$tlen" '[(.counters // {})[], (.gauges // {})[] | select(length != $n)] | length' "$DIR/history.json")
if [ "$bad" != 0 ]; then
	echo "events-smoke: $bad history series misaligned with the time column" >&2
	exit 1
fi

kill -TERM "$SRV"
rc=0
wait "$SRV" || rc=$?
trap - EXIT
if [ "$rc" != 0 ]; then
	echo "events-smoke: daemon exited $rc on graceful shutdown" >&2
	cat "$DIR/served.err" >&2
	exit 1
fi

echo "events-smoke: OK (job $id streamed to done, resume past id $mid, dashboard self-contained, history aligned)"
rm -rf "$DIR"
