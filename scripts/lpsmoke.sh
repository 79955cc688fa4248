#!/usr/bin/env bash
# LP solver smoke: a quick lips-lp -colgen -dual end-to-end check against
# the direct solve on a generated problem.
#
# Usage: scripts/lpsmoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/lips-lp" ./cmd/lips-lp

# A small dense LP: colgen and the direct solve must print the same
# objective line.
PROB="$BIN/prob.lp"
{
	echo "problem smoke"
	for j in $(seq 0 19); do
		echo "var x$j 0 10 $((j % 7 + 1))"
	done
	for i in $(seq 0 4); do
		echo "con c$i >= 8"
	done
	for i in $(seq 0 4); do
		for j in $(seq 0 19); do
			if [ $(((i + j) % 3)) -ne 0 ]; then
				echo "coef $i $j $(((i * j) % 5 + 1))"
			fi
		done
	done
} > "$PROB"

direct=$("$BIN/lips-lp" "$PROB" | grep '^objective:')
colgen=$("$BIN/lips-lp" -colgen -dual "$PROB" | grep '^objective:')
echo "lpsmoke: direct $direct"
echo "lpsmoke: colgen $colgen"
if [ "$direct" != "$colgen" ]; then
	echo "lpsmoke: FAIL: colgen objective diverged from direct solve" >&2
	exit 1
fi
echo "lpsmoke: OK"
