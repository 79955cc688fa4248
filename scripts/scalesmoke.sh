#!/usr/bin/env bash
# Scale smoke: drives a 1k-node / 100k-task seeded lips-sim -scale run
# under a wall-clock budget, schema-validates its JSONL trace, and
# requires a repeat run to reproduce the trace byte for byte — the
# paper-scale determinism gate.
#
# Usage: scripts/scalesmoke.sh
#   BUDGET=120  wall-clock seconds allowed for one -scale 1000 run
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET=${BUDGET:-120}

BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/lips-sim" ./cmd/lips-sim
go build -o "$BIN/lips-trace" ./cmd/lips-trace

args=(-scale 1000 -scheduler scale -seed 1 -sample-interval 120)

start=$SECONDS
"$BIN/lips-sim" "${args[@]}" -trace "$BIN/run.jsonl" >"$BIN/run.out"
elapsed=$((SECONDS - start))
sed 's/^/scalesmoke: /' "$BIN/run.out"
echo "scalesmoke: 1k-node run took ${elapsed}s (budget ${BUDGET}s)"
if [ "$elapsed" -gt "$BUDGET" ]; then
	echo "scalesmoke: FAIL: -scale 1000 run exceeded the ${BUDGET}s budget" >&2
	exit 1
fi

"$BIN/lips-trace" -validate "$BIN/run.jsonl" | sed 's/^/scalesmoke: /'

# Same seed, same trace — byte for byte at scale.
"$BIN/lips-sim" "${args[@]}" -trace "$BIN/run2.jsonl" >/dev/null
if ! cmp -s "$BIN/run.jsonl" "$BIN/run2.jsonl"; then
	echo "scalesmoke: FAIL: repeated seeded -scale run wrote a different JSONL trace" >&2
	exit 1
fi

echo "scalesmoke: OK"
