#!/usr/bin/env bash
# Fault-injection smoke: drives a short seeded churn scenario (2 crashes
# + recoveries, 1 store loss, 1 straggler window) through every scheduler
# and fails unless each run reports fault damage and reproduces
# bit-identically when repeated.
#
# Usage: scripts/faultsmoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/lips-sim" ./cmd/lips-sim

fail=0
for sched in fifo delay fair lips; do
	args=(-cluster paper20 -workload paper -scheduler "$sched"
		-faults 2 -fault-stores 1 -fault-slowdowns 1 -fault-seed 7)
	# The lips: stats line carries wall-clock solve time; everything else
	# must be byte-identical across runs.
	one=$("$BIN/lips-sim" "${args[@]}" | grep -v '^lips:')
	two=$("$BIN/lips-sim" "${args[@]}" | grep -v '^lips:')
	if [ "$one" != "$two" ]; then
		echo "faultsmoke: FAIL: $sched churn run not reproducible" >&2
		diff <(printf '%s\n' "$one") <(printf '%s\n' "$two") >&2 || true
		fail=1
		continue
	fi
	if ! printf '%s\n' "$one" | grep -q '^faults:'; then
		echo "faultsmoke: FAIL: $sched run reported no fault damage" >&2
		fail=1
		continue
	fi
	printf '%s\n' "$one" | awk -v s="$sched" '/^faults:/ { print "faultsmoke: " s ": " $0 }'
done
exit "$fail"
