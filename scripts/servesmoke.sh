#!/usr/bin/env bash
# Service-mode smoke: stands up a real lips-serve daemon on a 1000-node
# cluster and drives it with lips-load:
#
#   1. a 1000-submission open-loop burst must be fully admitted within
#      the p99 submit-latency SLO (backpressure headroom: queue-cap is
#      sized above the burst);
#   2. node churn injected mid-run must not kill the daemon — epochs keep
#      advancing and the LiPS warm-start path keeps translating bases;
#   3. an over-driven burst against a tiny queue must shed load as 429s
#      (visible in lips_serve_admission_total), never as 5xx errors;
#   4. SIGTERM must drain and exit 0.
#
# Usage: scripts/servesmoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
SRV_PID=
cleanup() {
	[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
	rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/lips-serve" ./cmd/lips-serve
go build -o "$BIN/lips-load" ./cmd/lips-load

wait_url() { # logfile -> base URL, polling until the daemon prints it
	local log=$1 url= i
	for i in $(seq 1 100); do
		url=$(sed -n 's|^lips-serve: listening on \(http://.*\)$|\1|p' "$log")
		[ -n "$url" ] && { echo "$url"; return 0; }
		sleep 0.1
	done
	return 1
}

# --- 1. admitted burst on a 1k-node cluster, inside the SLO -----------
# Aggregate LiPS (the default) groups the 1000 nodes by instance type,
# so the direct simplex — the path that warm-starts and translates bases
# across churn — stays fast without column generation.
"$BIN/lips-serve" -listen 127.0.0.1:0 -cluster random -nodes 1000 -scheduler lips \
	-epoch-sim 60 -epoch-wall 20ms -queue-cap 4096 -admit-per-epoch 512 \
	>"$BIN/serve.log" 2>&1 &
SRV_PID=$!
URL=$(wait_url "$BIN/serve.log") || { echo "servesmoke: FAIL: daemon never served" >&2; cat "$BIN/serve.log" >&2; exit 1; }
echo "servesmoke: daemon at $URL (pid $SRV_PID)"

curl -fsS "$URL/healthz" | grep -qx ok || { echo "servesmoke: FAIL: /healthz" >&2; exit 1; }

"$BIN/lips-load" -addr "$URL" -rate 2000 -total 1000 -tenants 4 \
	-archetype grep -input-mb 256 -slo-p99-ms 250 >"$BIN/load.json" || {
	echo "servesmoke: FAIL: burst missed the SLO or errored:" >&2
	cat "$BIN/load.json" >&2
	exit 1
}
cat "$BIN/load.json"
jq -e '.accepted == 1000 and .errors == 0' "$BIN/load.json" >/dev/null || {
	echo "servesmoke: FAIL: burst not fully admitted: $(cat "$BIN/load.json")" >&2
	exit 1
}

# --- 2. mid-run /metrics scrape, then churn survival ------------------
curl -fsS "$URL/metrics" >"$BIN/metrics.txt"
for fam in \
	'lips_serve_epochs_total counter' \
	'lips_serve_admission_total counter' \
	'lips_serve_queue_depth gauge' \
	'lips_serve_submit_latency_seconds histogram'; do
	grep -q "^# TYPE $fam\$" "$BIN/metrics.txt" || {
		echo "servesmoke: FAIL: /metrics missing family \"$fam\"" >&2
		exit 1
	}
done

epochs_before=$(awk '$1 == "lips_serve_epochs_total" {print $2}' "$BIN/metrics.txt")
curl -fsS -XPOST "$URL/admin/churn?node=3&kind=down" >/dev/null
sleep 1
curl -fsS -XPOST "$URL/admin/churn?node=3&kind=up" >/dev/null
sleep 1
curl -fsS "$URL/metrics" >"$BIN/metrics2.txt"
epochs_after=$(awk '$1 == "lips_serve_epochs_total" {print $2}' "$BIN/metrics2.txt")
awk -v a="$epochs_before" -v b="$epochs_after" 'BEGIN { exit !(b > a) }' || {
	echo "servesmoke: FAIL: epochs stalled across churn ($epochs_before -> $epochs_after)" >&2
	cat "$BIN/serve.log" >&2
	exit 1
}
awk '$1 == "lips_serve_churn_total{kind=\"down\"}" && $2 >= 1 { d = 1 }
	$1 == "lips_serve_churn_total{kind=\"up\"}" && $2 >= 1 { u = 1 }
	END { exit !(d && u) }' "$BIN/metrics2.txt" || {
	echo "servesmoke: FAIL: churn counters missing" >&2
	exit 1
}
# The LiPS epoch survives churn via warm-started bases, not cold restarts.
warm=$(awk '$1 == "lips_sched_warm_start_offers_total" {print $2}' "$BIN/metrics2.txt")
[ -n "$warm" ] && awk -v w="$warm" 'BEGIN { exit !(w > 0) }' || {
	echo "servesmoke: FAIL: no warm-start offers after churn" >&2
	exit 1
}

# --- 3. graceful shutdown --------------------------------------------
kill -TERM "$SRV_PID"
code=0
wait "$SRV_PID" || code=$?
SRV_PID=
[ "$code" -eq 0 ] || { echo "servesmoke: FAIL: daemon exited $code on SIGTERM" >&2; cat "$BIN/serve.log" >&2; exit 1; }
grep -q '^lips-serve: stopped$' "$BIN/serve.log" || {
	echo "servesmoke: FAIL: no clean-stop banner" >&2
	cat "$BIN/serve.log" >&2
	exit 1
}

# --- 4. over-drive a tiny queue: shed as 429, never 5xx ---------------
"$BIN/lips-serve" -listen 127.0.0.1:0 -cluster random -nodes 100 -scheduler fair \
	-epoch-sim 60 -epoch-wall 50ms -queue-cap 64 -admit-per-epoch 8 \
	>"$BIN/serve2.log" 2>&1 &
SRV_PID=$!
URL=$(wait_url "$BIN/serve2.log") || { echo "servesmoke: FAIL: second daemon never served" >&2; cat "$BIN/serve2.log" >&2; exit 1; }

"$BIN/lips-load" -addr "$URL" -rate 4000 -total 2000 -tenants 4 \
	-archetype grep -input-mb 256 >"$BIN/load2.json" || {
	echo "servesmoke: FAIL: over-drive run errored:" >&2
	cat "$BIN/load2.json" >&2
	exit 1
}
cat "$BIN/load2.json"
jq -e '.rejected > 0 and .errors == 0 and .accepted > 0' "$BIN/load2.json" >/dev/null || {
	echo "servesmoke: FAIL: over-drive should shed via 429s without errors: $(cat "$BIN/load2.json")" >&2
	exit 1
}

kill -TERM "$SRV_PID"
code=0
wait "$SRV_PID" || code=$?
SRV_PID=
[ "$code" -eq 0 ] || { echo "servesmoke: FAIL: second daemon exited $code" >&2; cat "$BIN/serve2.log" >&2; exit 1; }

echo "servesmoke: OK"
