#!/usr/bin/env bash
# Cost smoke: proves the chargeback pipeline end to end, to the exact
# microcent.
#
#   1. offline: a traced multi-tenant run with faults + speculation must
#      pass lips-trace -audit (event-rebuilt ledger == every embedded
#      sample, per category AND per tenant), and the -by-job rollup must
#      conserve the run total against the sampled time series;
#   2. live: a lips-serve daemon with SLO burn-rate alerting and a
#      tenant budget takes a weighted burst under node churn and
#      mid-flight cancels; /audit must stay green throughout, a
#      budget-exhausted deferral and a firing e2e burn alert must
#      appear, the alert must resolve after drain, and once quiesced the
#      /tenants rows must sum to /audit's ledger totals per category;
#   3. SIGTERM drains cleanly with the alert lifecycle in the log.
#
# Usage: scripts/costsmoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
SRV_PID=
cleanup() {
	[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
	rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/lips-sim" ./cmd/lips-sim
go build -o "$BIN/lips-trace" ./cmd/lips-trace
go build -o "$BIN/lips-serve" ./cmd/lips-serve
go build -o "$BIN/lips-load" ./cmd/lips-load

# --- 1. offline audit: trace replay rebuilds the ledger ----------------
"$BIN/lips-sim" -workload swim -jobs 40 -faults 2 -fault-stores 1 -fault-slowdowns 2 \
	-speculative -trace "$BIN/run.jsonl" >/dev/null
"$BIN/lips-trace" -audit "$BIN/run.jsonl" | tee "$BIN/audit.txt"
grep -q 'OK' "$BIN/audit.txt" || { echo "costsmoke: FAIL: offline audit not OK" >&2; exit 1; }
"$BIN/lips-trace" -by-job 5 -csv "$BIN/jobs.csv" "$BIN/run.jsonl" >/dev/null
"$BIN/lips-trace" -csv "$BIN/series.csv" "$BIN/run.jsonl" >/dev/null
rollup=$(awk -F, 'NR > 1 {s += $NF} END {print s+0}' "$BIN/jobs.csv")
series=$(awk -F, 'NR > 1 {last = $2} END {print last+0}' "$BIN/series.csv")
[ "$rollup" = "$series" ] || {
	echo "costsmoke: FAIL: by-job rollup ${rollup}uc != sampled total ${series}uc" >&2
	exit 1
}
echo "costsmoke: offline audit reconciled (${rollup}uc conserved across rollup and series)"

# --- 2. live daemon under churn, cancels and a tenant budget -----------
# admit-per-epoch 2 backs the burst up across many epochs, so the hog
# tenant's first completion exhausts its budget while its later jobs are
# still queued, and every late job blows the 30 sim-sec e2e objective.
"$BIN/lips-serve" -listen 127.0.0.1:0 -cluster paper20 -scheduler lips \
	-epoch-sim 60 -epoch-wall 10ms -queue-cap 256 -admit-per-epoch 2 \
	-slo-e2e 30 -slo-budget 0.25 -slo-short 300 -slo-long 600 \
	-budget tenant-3=0.0001 \
	-log-level info -log-format json \
	>"$BIN/serve.log" 2>"$BIN/serve.err.log" &
SRV_PID=$!
URL=
for i in $(seq 1 100); do
	URL=$(sed -n 's|^lips-serve: listening on \(http://.*\)$|\1|p' "$BIN/serve.log")
	[ -n "$URL" ] && break
	sleep 0.1
done
[ -n "$URL" ] || { echo "costsmoke: FAIL: daemon never served" >&2; cat "$BIN/serve.log" "$BIN/serve.err.log" >&2; exit 1; }
echo "costsmoke: daemon at $URL (pid $SRV_PID)"

TOTAL=20
# Weighted mix: tenant-3 takes ~5/8 of the burst and owns the budget.
"$BIN/lips-load" -addr "$URL" -rate 5000 -total "$TOTAL" -tenant-weights 1,1,1,5 \
	-archetype grep -input-mb 256 >"$BIN/load.json" || {
	echo "costsmoke: FAIL: load run errored: $(cat "$BIN/load.json")" >&2
	exit 1
}
jq -e --argjson n "$TOTAL" '.accepted == $n and .errors == 0' "$BIN/load.json" >/dev/null || {
	echo "costsmoke: FAIL: burst not fully admitted: $(cat "$BIN/load.json")" >&2
	exit 1
}

# Node churn while the burst is in flight: crash a node, bring it back.
curl -fsS -XPOST "$URL/admin/churn?node=3&kind=down" >/dev/null
sleep 0.3
curl -fsS -XPOST "$URL/admin/churn?node=3&kind=up" >/dev/null

# Mid-flight: /audit must already balance, and churn + spend must surface
# a budget-exhausted deferral and a firing burn alert.
deferral= firing=
for i in $(seq 1 200); do
	curl -fsS "$URL/audit" | jq -e '.ok' >/dev/null || {
		echo "costsmoke: FAIL: /audit drifted mid-churn" >&2
		curl -sS "$URL/audit" >&2 || true
		exit 1
	}
	[ -z "$deferral" ] && curl -fsS "$URL/debug/epochs" |
		jq -e '[.epochs[].deferred[]?.reason] | any(. == "budget-exhausted")' >/dev/null && deferral=yes
	[ -z "$firing" ] && curl -fsS "$URL/alerts" |
		jq -e '[.alerts[]? | select(.slo == "e2e" and .fired_sim > 0)] | length > 0' >/dev/null && firing=yes
	[ -n "$deferral" ] && [ -n "$firing" ] && break
	sleep 0.05
done
[ -n "$deferral" ] || { echo "costsmoke: FAIL: no budget-exhausted deferral recorded" >&2; curl -sS "$URL/debug/epochs" >&2 || true; exit 1; }
[ -n "$firing" ] || { echo "costsmoke: FAIL: e2e burn alert never fired" >&2; curl -sS "$URL/alerts" >&2 || true; exit 1; }
echo "costsmoke: budget-exhausted deferral and firing e2e alert observed"

# The hog tenant must be flagged over budget on its chargeback row.
curl -fsS "$URL/tenants/tenant-3" | jq -e '.over_budget and .budget_usd == 0.0001' >/dev/null || {
	echo "costsmoke: FAIL: tenant-3 not over budget:" >&2
	curl -sS "$URL/tenants/tenant-3" >&2 || true
	exit 1
}

# Cancel whatever has not finished — including the budget-blocked jobs —
# then wait for every submission to reach a terminal state.
for id in $(seq 0 $((TOTAL - 1))); do
	state=$(curl -fsS "$URL/status?id=$id" | jq -r .state)
	case "$state" in
	done | cancelled) ;;
	*) curl -sS -XPOST "$URL/cancel?id=$id" >/dev/null || true ;;
	esac
done
terminal=0
for i in $(seq 1 200); do
	terminal=$(curl -fsS "$URL/stats" | jq '(.jobs.done // 0) + (.jobs.cancelled // 0)')
	[ "$terminal" -eq "$TOTAL" ] && break
	sleep 0.1
done
[ "$terminal" -eq "$TOTAL" ] || {
	echo "costsmoke: FAIL: only $terminal/$TOTAL jobs terminal" >&2
	curl -fsS "$URL/stats" >&2 || true
	exit 1
}

# With no work left the burn windows empty out and the alert resolves.
resolved=
for i in $(seq 1 200); do
	curl -fsS "$URL/alerts" >"$BIN/alerts.json"
	jq -e '.firing == 0 and ([.alerts[]? | select(.state == "resolved" and .resolved_sim >= .fired_sim)] | length > 0)' \
		"$BIN/alerts.json" >/dev/null && { resolved=yes; break; }
	sleep 0.05
done
[ -n "$resolved" ] || { echo "costsmoke: FAIL: alert never resolved after drain:" >&2; cat "$BIN/alerts.json" >&2; exit 1; }
echo "costsmoke: burn alert resolved after the queue drained"

# Quiesced: no running work, no churn — /tenants must sum to /audit's
# ledger, per category and in total, to the exact microcent.
curl -fsS "$URL/audit" >"$BIN/audit.json"
curl -fsS "$URL/tenants" >"$BIN/tenants.json"
jq -e '.ok and .total_uc == .tenant_sum_uc and .total_uc == .metric_tenant_uc and .total_uc == .metric_category_uc' \
	"$BIN/audit.json" >/dev/null || {
	echo "costsmoke: FAIL: final /audit not balanced:" >&2
	cat "$BIN/audit.json" >&2
	exit 1
}
jq -es '
	(.[0].tenants | map(.total_uc) | add) as $rows
	| (.[1].total_uc) as $ledger
	| ($rows == $ledger)
	and ([.[0].tenants[].categories_uc // {} | to_entries[]]
		| group_by(.key) | map({key: .[0].key, value: (map(.value) | add)})
		| from_entries | with_entries(select(.value != 0))) ==
		(.[1].categories_uc | with_entries(select(.value != 0)))
' "$BIN/tenants.json" "$BIN/audit.json" >/dev/null || {
	echo "costsmoke: FAIL: /tenants rows do not sum to the /audit ledger:" >&2
	cat "$BIN/tenants.json" "$BIN/audit.json" >&2
	exit 1
}
total_usd=$(jq -r .total_usd "$BIN/audit.json")
echo "costsmoke: tenant chargebacks sum to the ledger (\$$total_usd) per category"

# Metric families backing the dashboards must be live.
curl -fsS "$URL/metrics" >"$BIN/metrics.txt"
for family in lips_cost_microcents_total lips_serve_slo_burn_rate lips_serve_slo_alerts_firing; do
	grep -q "^# TYPE $family " "$BIN/metrics.txt" || {
		echo "costsmoke: FAIL: metric family $family missing" >&2
		exit 1
	}
done
awk '$1 ~ /^lips_serve_slo_alert_transitions_total{state="firing"}$/ {f = $2} \
	$1 ~ /^lips_serve_slo_alert_transitions_total{state="resolved"}$/ {r = $2} \
	END {exit !(f >= 1 && r >= 1)}' "$BIN/metrics.txt" || {
	echo "costsmoke: FAIL: alert transition counters missing firing/resolved" >&2
	grep lips_serve_slo "$BIN/metrics.txt" >&2 || true
	exit 1
}

# --- 3. clean drain with the alert lifecycle in the log ----------------
kill -TERM "$SRV_PID"
code=0
wait "$SRV_PID" || code=$?
SRV_PID=
[ "$code" -eq 0 ] || { echo "costsmoke: FAIL: daemon exited $code on SIGTERM" >&2; cat "$BIN/serve.err.log" >&2; exit 1; }
jq -es 'any(.[]; .msg == "slo alert firing") and any(.[]; .msg == "slo alert resolved")' \
	"$BIN/serve.err.log" >/dev/null || {
	echo "costsmoke: FAIL: alert lifecycle missing from the structured log" >&2
	exit 1
}

echo "costsmoke: OK"
