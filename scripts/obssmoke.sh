#!/usr/bin/env bash
# Observability smoke: starts a live lips-sim -listen run on loopback
# and scrapes it mid-run — /healthz answers, /metrics serves a
# well-formed Prometheus exposition carrying the sim, sched and LP
# families with live (nonzero) values, /progress
# returns the JSON snapshot with the Sampler-aligned field names, and
# /debug/pprof/profile captures a CPU profile — all while the simulation
# is still running. The workload is sized to run well past the scrape
# window; the run is killed once the checks pass.
#
# Usage: scripts/obssmoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
SIM_PID=
cleanup() {
	[ -n "$SIM_PID" ] && kill "$SIM_PID" 2>/dev/null || true
	rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/lips-sim" ./cmd/lips-sim

# ~13 s of wall-clock on a dev laptop — a wide window to scrape inside.
"$BIN/lips-sim" -cluster paper100 -workload random -tasks 10000 \
	-scheduler lips -seed 1 -listen 127.0.0.1:0 >"$BIN/sim.log" 2>&1 &
SIM_PID=$!

# The serving URL is printed before the run starts.
URL=
for _ in $(seq 1 100); do
	URL=$(sed -n 's|^metrics: serving \(http://[^/]*\)/metrics$|\1|p' "$BIN/sim.log")
	[ -n "$URL" ] && break
	kill -0 "$SIM_PID" 2>/dev/null || { echo "obssmoke: FAIL: lips-sim exited before serving" >&2; cat "$BIN/sim.log" >&2; exit 1; }
	sleep 0.1
done
if [ -z "$URL" ]; then
	echo "obssmoke: FAIL: no serving URL in lips-sim output" >&2
	cat "$BIN/sim.log" >&2
	exit 1
fi
echo "obssmoke: scraping $URL (pid $SIM_PID)"

curl -fsS "$URL/healthz" | grep -qx ok || { echo "obssmoke: FAIL: /healthz" >&2; exit 1; }

# Poll /metrics until the run is demonstrably live: tasks completing,
# epochs solving, LPs iterating.
live=
for _ in $(seq 1 200); do
	kill -0 "$SIM_PID" 2>/dev/null || { echo "obssmoke: FAIL: lips-sim exited before the scrape" >&2; cat "$BIN/sim.log" >&2; exit 1; }
	curl -fsS "$URL/metrics" >"$BIN/metrics.txt"
	if awk '
		$1 == "lips_sim_tasks_done_total" && $2 > 0 { done = 1 }
		$1 == "lips_sched_epochs_total"   && $2 > 0 { epochs = 1 }
		$1 == "lips_lp_solves_total"      && $2 > 0 { solves = 1 }
		END { exit !(done && epochs && solves) }' "$BIN/metrics.txt"; then
		live=1
		break
	fi
	sleep 0.1
done
[ -n "$live" ] || { echo "obssmoke: FAIL: metrics never went live:" >&2; cat "$BIN/metrics.txt" >&2; exit 1; }

# Exposition shape: every non-comment line is `name[{labels}] value`, and
# every family is preceded by HELP and TYPE lines.
awk '
	/^# (HELP|TYPE) / { next }
	/^#/ { print "bad comment: " $0; bad = 1; next }
	!/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+]/ { print "bad sample line: " $0; bad = 1 }
	END { exit bad }' "$BIN/metrics.txt" || { echo "obssmoke: FAIL: malformed exposition" >&2; exit 1; }

# Required families, with their advertised types.
for fam in \
	'lips_sim_tasks gauge' \
	'lips_sim_cost_microcents_total counter' \
	'lips_sim_tasks_launched_total counter' \
	'lips_sched_epochs_total counter' \
	'lips_sched_epoch_iterations histogram' \
	'lips_lp_solves_total counter' \
	'lips_lp_iterations_total counter'; do
	if ! grep -q "^# TYPE $fam\$" "$BIN/metrics.txt"; then
		echo "obssmoke: FAIL: /metrics missing family \"$fam\"" >&2
		exit 1
	fi
done

# /progress carries the Sampler-aligned field names (units pinned by
# TestProgressMatchesSamplerCSV) plus the scheduler extras.
curl -fsS "$URL/progress" >"$BIN/progress.json"
for field in t_sec total_uc cpu_uc transfer_uc running queued pending done \
	free_slots live_slots busy_slot_sec node_local epoch deferred_tasks faults_injected; do
	if ! grep -q "\"$field\":" "$BIN/progress.json"; then
		echo "obssmoke: FAIL: /progress missing field \"$field\": $(cat "$BIN/progress.json")" >&2
		exit 1
	fi
done

# A short CPU profile captured from the live process.
curl -fsS -o "$BIN/cpu.pb.gz" "$URL/debug/pprof/profile?seconds=1"
[ -s "$BIN/cpu.pb.gz" ] || { echo "obssmoke: FAIL: empty CPU profile" >&2; exit 1; }

kill -0 "$SIM_PID" 2>/dev/null || { echo "obssmoke: FAIL: lips-sim died during the scrape" >&2; cat "$BIN/sim.log" >&2; exit 1; }
echo "obssmoke: $(grep -c '^lips_' "$BIN/metrics.txt") series live; progress: $(cat "$BIN/progress.json")"
echo "obssmoke: OK"
