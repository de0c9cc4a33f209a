#!/bin/sh
# matrix-smoke: end-to-end check of the registry-driven experiment
# matrix through the lockbench CLI.
#
# Exercises the scheme and attack registries end to end: -list must
# enumerate both registries, a -schemes/-attacks sub-grid must run only
# the requested cells, the narrative cells must hold (SAT breaks RLL,
# is capped on CAS-Lock, DIP learning breaks CAS-Lock), and an unknown
# registry name must be rejected with the valid universe in the error.
#
# Usage: matrix_smoke.sh <workdir>
set -eu

DIR=${1:?usage: matrix_smoke.sh workdir}
GO=${GO:-go}
rm -rf "$DIR" && mkdir -p "$DIR/bin"

$GO build -o "$DIR/bin/" ./cmd/lockbench

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

echo "matrix-smoke: OK (registries listed, sub-grid verdicts hold, unknown names rejected)"
rm -rf "$DIR"
