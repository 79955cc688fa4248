#!/usr/bin/env bash
# Span smoke: stands up a live lips-serve daemon and checks the
# observability surface end to end:
#
#   1. submit a small burst across three tenants and wait for every job
#      to finish, capturing the per-request CSV from lips-load;
#   2. every /jobs/{id}/trace must telescope — phase durations sum to
#      the end-to-end sim latency — with ordered milestones and an
#      exact micro-cent cost;
#   3. /debug/epochs must expose the admission decisions: every job
#      accounted for, deferral reasons inside the typed taxonomy, and
#      each epoch the scheduler planned shown with its solver one-liner
#      and its build/solve/round/apply durations inside wall_ms;
#   4. the per-tenant histograms on /metrics must agree with the span
#      counts, and /readyz must flip 200 -> 503 across SIGTERM drain.
#
# Usage: scripts/spansmoke.sh
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

"$BIN/lips-serve" -listen 127.0.0.1:0 -cluster paper20 -scheduler lips \
	-epoch-sim 60 -epoch-wall 10ms -queue-cap 256 -admit-per-epoch 4 \
	-log-level info -log-format json \
	>"$BIN/serve.log" 2>"$BIN/serve.err.log" &
SRV_PID=$!
URL=
for i in $(seq 1 100); do
	URL=$(sed -n 's|^lips-serve: listening on \(http://.*\)$|\1|p' "$BIN/serve.log")
	[ -n "$URL" ] && break
	sleep 0.1
done
[ -n "$URL" ] || { echo "spansmoke: FAIL: daemon never served" >&2; cat "$BIN/serve.log" "$BIN/serve.err.log" >&2; exit 1; }
echo "spansmoke: daemon at $URL (pid $SRV_PID)"

curl -fsS "$URL/readyz" | grep -qx ok || { echo "spansmoke: FAIL: /readyz not ok while serving" >&2; exit 1; }

# --- 1. burst, then drain to completion -------------------------------
TOTAL=12
# Rate far above admit-per-epoch x epoch frequency so the queue backs up
# and the decision ring records fair-share deferrals.
"$BIN/lips-load" -addr "$URL" -rate 5000 -total "$TOTAL" -tenants 3 \
	-archetype grep -input-mb 256 -out-csv "$BIN/load.csv" >"$BIN/load.json" || {
	echo "spansmoke: FAIL: load run errored:" >&2
	cat "$BIN/load.json" >&2
	exit 1
}
jq -e --argjson n "$TOTAL" '.accepted == $n and .errors == 0' "$BIN/load.json" >/dev/null || {
	echo "spansmoke: FAIL: burst not fully admitted: $(cat "$BIN/load.json")" >&2
	exit 1
}
# The CSV carries one row per request plus the header.
rows=$(($(wc -l <"$BIN/load.csv") - 1))
head -1 "$BIN/load.csv" | grep -qx 'seq,tenant,status,latency_ms,retry_after_sec' || {
	echo "spansmoke: FAIL: bad CSV header: $(head -1 "$BIN/load.csv")" >&2
	exit 1
}
[ "$rows" -eq "$TOTAL" ] || { echo "spansmoke: FAIL: CSV has $rows rows, want $TOTAL" >&2; exit 1; }

for i in $(seq 1 200); do
	done_jobs=$(curl -fsS "$URL/stats" | jq '.jobs.done // 0')
	[ "$done_jobs" -eq "$TOTAL" ] && break
	sleep 0.1
done
[ "$done_jobs" -eq "$TOTAL" ] || {
	echo "spansmoke: FAIL: only $done_jobs/$TOTAL jobs done" >&2
	curl -fsS "$URL/stats" >&2 || true
	exit 1
}

# --- 2. traces telescope ----------------------------------------------
for id in $(seq 0 $((TOTAL - 1))); do
	curl -fsS "$URL/jobs/$id/trace" >"$BIN/trace.json"
	jq -e '
		.outcome == "done"
		and .submitted_sim >= 0
		and .admitted_sim >= .submitted_sim
		and .planned_sim >= .admitted_sim
		and .first_launch_sim >= .planned_sim
		and .done_sim >= .first_launch_sim
		and .admitted_epoch > 0
		and .cost_uc > 0
		and (([.phases[].dur_sim] | add) - .e2e_sim | if . < 0 then -. else . end) < 1e-6
	' "$BIN/trace.json" >/dev/null || {
		echo "spansmoke: FAIL: job $id trace does not telescope:" >&2
		cat "$BIN/trace.json" >&2
		exit 1
	}
done
echo "spansmoke: $TOTAL traces telescope (phases sum to e2e)"

# --- 3. epoch decisions -----------------------------------------------
curl -fsS "$URL/debug/epochs" >"$BIN/epochs.json"
jq -e --argjson n "$TOTAL" '
	.total > 0
	and ([.epochs[].admitted_count] | add) == $n
	and ([.epochs[].deferred[]?.reason]
		| all(. == "queue-cap" or . == "fair-share-rank"
			or . == "solver-backpressure" or . == "no-capacity" or . == "draining"))
	and ([.epochs[] | select(has("sched_epoch"))] | length > 0 and all(
		.solver != "" and .lp_rows > 0 and .lp_cols > 0 and .lp_nnz > 0
		and .build_ms > 0 and .solve_ms > 0 and .round_ms >= 0 and .apply_ms >= 0
		and .build_ms + .solve_ms + .round_ms + .apply_ms <= .wall_ms + 1e-9))
' "$BIN/epochs.json" >/dev/null || {
	echo "spansmoke: FAIL: /debug/epochs decisions malformed:" >&2
	cat "$BIN/epochs.json" >&2
	exit 1
}
# admit-per-epoch 4 against a 12-job burst must defer some jobs.
jq -e '[.epochs[].deferred_count] | add > 0' "$BIN/epochs.json" >/dev/null || {
	echo "spansmoke: FAIL: no deferrals despite admit-per-epoch < burst" >&2
	exit 1
}

# --- 4. histograms agree with spans, readiness flips on drain ---------
curl -fsS "$URL/metrics" >"$BIN/metrics.txt"
spans_done=$(awk '$1 == "lips_serve_spans_total{outcome=\"done\"}" {print $2}' "$BIN/metrics.txt")
[ "$spans_done" = "$TOTAL" ] || {
	echo "spansmoke: FAIL: spans_total{done} = ${spans_done:-missing}, want $TOTAL" >&2
	exit 1
}
e2e_count=$(awk -F'[ }]' '/^lips_serve_tenant_e2e_seconds_count\{/ {s += $NF} END {print s+0}' "$BIN/metrics.txt")
[ "$e2e_count" -eq "$TOTAL" ] || {
	echo "spansmoke: FAIL: tenant e2e observations = $e2e_count, want $TOTAL" >&2
	exit 1
}
grep -q '^# TYPE lips_serve_epoch_solve_share histogram$' "$BIN/metrics.txt" || {
	echo "spansmoke: FAIL: solve-share histogram missing" >&2
	exit 1
}

kill -TERM "$SRV_PID"
code=0
wait "$SRV_PID" || code=$?
SRV_PID=
[ "$code" -eq 0 ] || { echo "spansmoke: FAIL: daemon exited $code on SIGTERM" >&2; cat "$BIN/serve.err.log" >&2; exit 1; }
grep -q '^lips-serve: stopped$' "$BIN/serve.log" || {
	echo "spansmoke: FAIL: no clean-stop banner" >&2
	exit 1
}
# Structured logs must have recorded the lifecycle at info level.
jq -es 'any(.[]; .msg == "epoch loop started") and any(.[]; .msg == "drain started")' \
	"$BIN/serve.err.log" >/dev/null || {
	echo "spansmoke: FAIL: lifecycle records missing from the json log:" >&2
	cat "$BIN/serve.err.log" >&2
	exit 1
}

echo "spansmoke: OK"
