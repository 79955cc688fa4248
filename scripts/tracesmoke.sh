#!/usr/bin/env bash
# Trace smoke: drives a full seeded lips-sim run with -trace in both
# formats and checks the pipeline end to end — the JSONL log
# schema-validates under lips-trace -validate,
# the inspection report renders every section, the CSV export matches
# the sampler's column contract, repeating the run reproduces the JSONL
# byte-for-byte, and the Chrome export parses as a JSON array.
#
# Usage: scripts/tracesmoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/lips-sim" ./cmd/lips-sim
go build -o "$BIN/lips-trace" ./cmd/lips-trace

args=(-cluster paper20 -workload paper -scheduler lips
	-faults 1 -fault-slowdowns 1 -fault-seed 7 -sample-interval 120)

"$BIN/lips-sim" "${args[@]}" -trace "$BIN/run.jsonl" >/dev/null
"$BIN/lips-trace" -validate "$BIN/run.jsonl" | sed 's/^/tracesmoke: /'

REPORT=$("$BIN/lips-trace" -top 5 -csv "$BIN/series.csv" "$BIN/run.jsonl")
for section in 'cost over time:' 'epoch timeline:' 'slowest tasks:' 'per-node utilization'; do
	if ! printf '%s\n' "$REPORT" | grep -q "$section"; then
		echo "tracesmoke: FAIL: lips-trace report missing \"$section\"" >&2
		exit 1
	fi
done
if ! head -1 "$BIN/series.csv" | grep -q '^t_sec,total_uc,'; then
	echo "tracesmoke: FAIL: CSV export header wrong: $(head -1 "$BIN/series.csv")" >&2
	exit 1
fi

# Same seed, same trace — byte for byte.
"$BIN/lips-sim" "${args[@]}" -trace "$BIN/run2.jsonl" >/dev/null
if ! cmp -s "$BIN/run.jsonl" "$BIN/run2.jsonl"; then
	echo "tracesmoke: FAIL: repeated seeded run wrote a different JSONL trace" >&2
	exit 1
fi

# Chrome export must be a well-formed JSON array Perfetto can load.
"$BIN/lips-sim" "${args[@]}" -trace "$BIN/run.json" -trace-format chrome >/dev/null
if command -v jq >/dev/null 2>&1; then
	records=$(jq 'length' "$BIN/run.json")
	phases=$(jq -r '[.[].ph] | unique | join(",")' "$BIN/run.json")
	echo "tracesmoke: chrome export: $records records, phases {$phases}"
	for ph in M X i C; do
		if ! jq -e --arg p "$ph" 'any(.[]; .ph == $p)' "$BIN/run.json" >/dev/null; then
			echo "tracesmoke: FAIL: chrome export has no \"$ph\" records" >&2
			exit 1
		fi
	done
else
	head -c1 "$BIN/run.json" | grep -q '\[' || {
		echo "tracesmoke: FAIL: chrome export is not a JSON array" >&2
		exit 1
	}
	echo "tracesmoke: jq not available; chrome export only shape-checked"
fi

echo "tracesmoke: OK"
