#!/bin/sh
# matrix-smoke: end-to-end check of the experiment surfaces: the
# registry-driven matrix through the lockbench CLI, the DIP-count
# leakage demo and dipcount's measured DIP count.
#
# Exercises the scheme and attack registries end to end: -list must
# enumerate both registries, a -schemes/-attacks sub-grid must run only
# the requested cells, the narrative cells must hold (SAT breaks RLL,
# is capped on CAS-Lock, DIP learning breaks CAS-Lock), and an unknown
# registry name must be rejected with the valid universe in the error.
# examples/leakage must leak its secret CAS chain and learn SFLL-HD's h
# for h = 1, 2, 3; dipcount -verify must measure the miter-visible 23
# DIPs of the OR-terminated 2A-O-A-O.
#
# Usage: matrix_smoke.sh <workdir>
set -eu

DIR=${1:?usage: matrix_smoke.sh workdir}
GO=${GO:-go}
rm -rf "$DIR" && mkdir -p "$DIR/bin"

$GO build -o "$DIR/bin/" ./cmd/lockbench ./cmd/dipcount ./examples/leakage

"$DIR/bin/lockbench" -list >"$DIR/list.out"
for name in rll cas mcas sat dip sps-removal bypass; do
	if ! grep -q "^  $name[[:space:]]" "$DIR/list.out"; then
		echo "matrix-smoke: -list is missing registry entry \"$name\"" >&2
		cat "$DIR/list.out" >&2
		exit 1
	fi
done

"$DIR/bin/lockbench" -inputs 12 -satcap 300 -seed 1 \
	-schemes rll,cas -attacks sat,dip >"$DIR/grid.out" 2>&1 || {
	echo "matrix-smoke: sub-grid run failed" >&2
	cat "$DIR/grid.out" >&2
	exit 1
}
out="$DIR/grid.out"
# Narrative cells, from the per-cell detail lines.
grep -q "^RLL  *× SAT  *exact key" "$out" || {
	echo "matrix-smoke: SAT attack did not break RLL" >&2
	cat "$out" >&2
	exit 1
}
grep -q "^CAS-Lock *× SAT  *capped" "$out" || {
	echo "matrix-smoke: SAT attack was not capped on CAS-Lock" >&2
	cat "$out" >&2
	exit 1
}
grep -q "^CAS-Lock *× DIP-learning *exact key" "$out" || {
	echo "matrix-smoke: DIP learning did not break CAS-Lock" >&2
	cat "$out" >&2
	exit 1
}
# The sub-grid must contain exactly the requested 2x2 = 4 cells.
cells=$(grep -c "^\(RLL\|CAS-Lock\) *× " "$out")
if [ "$cells" -ne 4 ]; then
	echo "matrix-smoke: sub-grid has $cells cells, want 4" >&2
	cat "$out" >&2
	exit 1
fi

if "$DIR/bin/lockbench" -schemes nosuchscheme >"$DIR/bad.out" 2>&1; then
	echo "matrix-smoke: unknown scheme name was accepted" >&2
	exit 1
fi
grep -q "unknown scheme" "$DIR/bad.out" || {
	echo "matrix-smoke: unknown-scheme rejection lacks the error message" >&2
	cat "$DIR/bad.out" >&2
	exit 1
}
grep -q "have:" "$DIR/bad.out" || {
	echo "matrix-smoke: unknown-scheme rejection does not list the universe" >&2
	cat "$DIR/bad.out" >&2
	exit 1
}

"$DIR/bin/leakage" >"$DIR/leakage.out" 2>&1 || {
	echo "matrix-smoke: examples/leakage failed" >&2
	cat "$DIR/leakage.out" >&2
	exit 1
}
for h in 1 2 3; do
	grep -q "learned h = $h (secret was $h)" "$DIR/leakage.out" || {
		echo "matrix-smoke: leakage did not learn SFLL-HD h = $h" >&2
		cat "$DIR/leakage.out" >&2
		exit 1
	}
done
chains=$(sed -n 's/.*leaked chain: \(.*\) (secret was \(.*\))$/\1 \2/p' "$DIR/leakage.out")
set -- $chains
if [ $# -ne 2 ] || [ "$1" != "$2" ]; then
	echo "matrix-smoke: leaked CAS chain differs from its secret" >&2
	cat "$DIR/leakage.out" >&2
	exit 1
fi

"$DIR/bin/dipcount" -chain "2A-O-A-O" -verify >"$DIR/dipcount.out" 2>&1 || {
	echo "matrix-smoke: dipcount -verify failed" >&2
	cat "$DIR/dipcount.out" >&2
	exit 1
}
grep -q "measured |I_l|: 23 " "$DIR/dipcount.out" || {
	echo "matrix-smoke: dipcount measured the wrong DIP count for 2A-O-A-O" >&2
	cat "$DIR/dipcount.out" >&2
	exit 1
}

echo "matrix-smoke: OK (registries listed, sub-grid verdicts hold, unknown names rejected, DIP counts leak and verify)"
rm -rf "$DIR"
