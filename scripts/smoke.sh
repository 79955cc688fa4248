#!/usr/bin/env bash
# Process-boundary smoke: what no in-process Go test can hold — each
# binary starting from its flags and exiting with its documented code,
# files handed from one process to the next, real TCP listeners, SIGTERM
# and the log stream. Every other assertion the old per-feature smokes
# made lives in a named Go test (CHANGES.md, PR 21, has the map).
#
# Needs bash, curl and jq; binds only 127.0.0.1:0. Usage: scripts/smoke.sh
set -Eeuo pipefail
cd "$(dirname "$0")/.."

T=$(mktemp -d)
SECTION=build PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; rm -rf "$T"' EXIT
trap 'tail -n 20 "$T"/*.log >&2 2>/dev/null || true
	echo "smoke: FAIL in §$SECTION at line $LINENO: $BASH_COMMAND" >&2' ERR

go build -o "$T/" ./cmd/...

expect() { # CODE CMD...: the command must exit with exactly CODE
	local want=$1 got=0
	shift
	"$T/$1" "${@:2}" >"$T/expect.log" 2>&1 || got=$?
	[ "$got" -eq "$want" ] || { echo "smoke: $* exited $got, want $want" >&2; return 1; }
}
retry() { # CMD...: poll up to 20 s until the command succeeds
	local i
	for i in $(seq 200); do
		if "$@" >/dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "smoke: gave up waiting for: $*" >&2
	return 1
}
banner() { # LOG PATTERN: the URL a process printed once it was listening
	retry grep -q "$2" "$1"
	sed -n "s|^$2 \(http://[^/ ]*\).*|\1|p" "$1" | head -1
}

# --- flags: documented exit codes (0 ok, 1 run failed, 2 bad flags) -----
SECTION=flags
printf 'var x 0 3 -1\ncon cap <= 4\ncoef 0 0 1\n' >"$T/ok.lp"
printf 'var x 0 1 1\ncon c >= 5\ncoef 0 0 1\n' >"$T/infeasible.lp"
printf 'var x 5 1 0\n' >"$T/bad.lp"
expect 0 lips-lp -duals "$T/ok.lp"
grep -q '^objective: -3$' "$T/expect.log"
expect 2 lips-lp "$T/infeasible.lp" # lips-lp documents 2 as "no optimum"
expect 1 lips-lp "$T/missing.lp"
expect 1 lips-lp "$T/bad.lp" # a value the builder refuses is a parse error
expect 2 lips-lp -presolve off "$T/ok.lp"
expect 0 lips-bench -experiment table1
expect 2 lips-bench -experiment fig99
expect 2 lips-bench -trace-format svg
expect 0 lips-balance -tasks 300
expect 1 lips-balance -cluster random
expect 1 lips-sim -cluster moon-base
expect 2 lips-sim -nodes 0
expect 2 lips-sim -log-level loud
expect 2 lips-sim -scheduler lips -epoch NaN
expect 2 lips-serve -cluster random -nodes 0
expect 2 lips-serve -scheduler fifo
expect 2 lips-serve -epoch 1e-300
expect 2 lips-serve -budget alice
expect 1 lips-serve -listen 127.0.0.1:99999
expect 2 lips-load -rate 0
expect 2 lips-trace

# --- trace: one process writes the file, another reads it ---------------
SECTION=trace
run=(-workload swim -jobs 40 -faults 2 -fault-stores 1 -fault-slowdowns 2 -speculative -sample-interval 120)
"$T/lips-sim" "${run[@]}" -trace "$T/run.jsonl" >"$T/sim.log"
grep -q '^faults: ' "$T/sim.log"
"$T/lips-trace" -validate "$T/run.jsonl" >"$T/validate.log"
"$T/lips-trace" -audit "$T/run.jsonl" >"$T/audit.log"
grep -q OK "$T/audit.log"
"$T/lips-sim" "${run[@]}" -trace "$T/run2.jsonl" >/dev/null
cmp "$T/run.jsonl" "$T/run2.jsonl" # same seed, same bytes

# --- listen: a batch run scraped over TCP while it is still running -----
SECTION=listen
"$T/lips-sim" -cluster paper100 -workload random -tasks 10000 -scheduler lips \
	-listen 127.0.0.1:0 >"$T/listen.log" 2>&1 &
PIDS+=($!)
URL=$(banner "$T/listen.log" 'metrics: serving')
[ "$(curl -fsS "$URL/healthz")" = ok ]
live() {
	curl -fsS "$URL/metrics" | awk '
		$1 == "lips_sim_tasks_done_total" && $2 > 0 { d = 1 }
		$1 == "lips_sched_epochs_total" && $2 > 0 { e = 1 }
		$1 == "lips_lp_solves_total" && $2 > 0 { s = 1 }
		END { exit !(d && e && s) }'
}
retry live
curl -fsS "$URL/progress" | jq -e '.t_sec > 0 and has("free_slots") and has("epoch")' >/dev/null
kill -0 "${PIDS[0]}" # still running: the scrape was mid-run
kill "${PIDS[0]}"

# --- serve: one daemon, a load generator, SIGTERM -----------------------
SECTION=serve
"$T/lips-serve" -listen 127.0.0.1:0 -cluster paper20 -scheduler lips \
	-epoch-sim 60 -epoch-wall 10ms -queue-cap 64 -admit-per-epoch 4 \
	-slo-e2e 30 -budget tenant-0=5 -log-level info -log-format json \
	>"$T/serve.log" 2>"$T/serve.err.log" &
SRV=$!
PIDS+=($SRV)
URL=$(banner "$T/serve.log" 'lips-serve: listening on')
[ "$(curl -fsS "$URL/readyz")" = ok ]

N=12
"$T/lips-load" -addr "$URL" -rate 2000 -total $N -tenant-weights 1,1,2 \
	-slo-p99-ms 250 -out-csv "$T/load.csv" >"$T/load.log"
jq -e --argjson n $N '.accepted == $n and .errors == 0' "$T/load.log" >/dev/null
[ "$(head -1 "$T/load.csv")" = seq,tenant,status,latency_ms,retry_after_sec ]
[ "$(wc -l <"$T/load.csv")" -eq $((N + 1)) ]
alldone() { curl -fsS "$URL/stats" | jq -e --argjson n $N '.jobs.done == $n'; }
retry alldone

curl -fsS "$URL/jobs/0/trace" | jq -e '.outcome == "done" and .e2e_sim > 0' >/dev/null
curl -fsS "$URL/debug/epochs" | jq -e '.total > 0 and (.epochs | length) > 0' >/dev/null
curl -fsS "$URL/tenants/tenant-0" | jq -e '.budget_usd == 5' >/dev/null # -budget arrived
curl -fsS "$URL/alerts" | jq -e '.enabled' >/dev/null                   # -slo-e2e arrived
curl -fsS -XPOST "$URL/admin/churn?node=3&kind=down" >/dev/null
curl -fsS -XPOST "$URL/admin/churn?node=3&kind=up" >/dev/null
curl -fsS "$URL/audit" | jq -e '.ok' >/dev/null

# Over-driving the 64-deep queue sheds 429s, which lips-load counts as
# rejected, never as errors (it would exit 1).
"$T/lips-load" -addr "$URL" -rate 5000 -total 400 -tenants 3 >"$T/load2.log"
jq -e '.rejected > 0 and .accepted > 0 and .errors == 0' "$T/load2.log" >/dev/null

kill -TERM $SRV
wait $SRV # exit 0 after the drain, or ERR fires
grep -q '^lips-serve: stopped$' "$T/serve.log"
jq -es 'any(.[]; .msg == "epoch loop started") and any(.[]; .msg == "drain started")' \
	"$T/serve.err.log" >/dev/null

echo "smoke: OK"
