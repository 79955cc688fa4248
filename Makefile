GO ?= go

.PHONY: all build test race vet loc bench benchpair lpsmoke faultsmoke tracesmoke obssmoke scalesmoke servesmoke spansmoke costsmoke

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The three sizes the ROADMAP tracks, so simplicity PRs report them alike.
loc:
	@echo "non-test Go outside bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l) lines"
	@echo "scripts/*.sh: $$(cat scripts/*.sh | wc -l) lines"
	@echo "DESIGN.md: $$(grep -c '^## ' DESIGN.md) sections"

# Five passes of every bench/ workload, then bench/cmp's spread per row.
bench:
	mkdir -p bench/out && rm -f bench/out/head.jsonl
	bash bench/run.sh --passes 5 --out bench/out/head.jsonl
	$(GO) run ./bench/cmp bench/out/head.jsonl

# The paired evidence a perf claim must attach: checks BASE out into a
# throwaway git worktree — or, where worktrees are off limits, uses
# BASE_DIR, an existing checkout of the parent — runs PAIRS alternating
# passes of bench/run.sh on WORKLOAD per side (the side that goes first
# alternates too) and prints bench/cmp's verdict, BASE first.
BASE ?= HEAD~1
BASE_DIR ?=
WORKLOAD ?= stream-1k-wide
PAIRS ?= 10
benchpair:
	@set -e; wt="$(BASE_DIR)"; out=$$PWD/bench/out/pair-$(WORKLOAD); \
	if [ -z "$$wt" ]; then \
		wt=$$(mktemp -d); trap 'git worktree remove --force "$$wt"' EXIT; \
		git worktree add --detach "$$wt" $(BASE) >/dev/null; \
	fi; \
	rm -rf "$$out"; mkdir -p "$$out"; \
	base() { (cd "$$wt" && bash bench/run.sh --workload $(WORKLOAD) --out "$$out/base.jsonl" >/dev/null); }; \
	tip() { bash bench/run.sh --workload $(WORKLOAD) --out "$$out/head.jsonl" >/dev/null; }; \
	for i in $$(seq $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then base; tip; else tip; base; fi; \
	done; \
	$(GO) run ./bench/cmp "$$out/base.jsonl" "$$out/head.jsonl"

# Smokes: each script builds the binaries it needs and drives them.

# Checks lips-lp -colgen -dual against the direct solve.
lpsmoke:
	scripts/lpsmoke.sh

# Replays a seeded churn scenario through every scheduler, requiring
# fault damage and bit-identical repeats.
faultsmoke:
	scripts/faultsmoke.sh

# Runs a traced lips-sim, schema-validates the JSONL, renders the
# lips-trace report and checks the Chrome export and reproducibility.
tracesmoke:
	scripts/tracesmoke.sh

# Starts a live lips-sim -listen run and scrapes /metrics, /progress and
# /debug/pprof mid-run, validating the exposition and required families.
obssmoke:
	scripts/obssmoke.sh

# Replays a 1k-node seeded -scale run under a wall-clock budget,
# requiring byte-identical traces.
scalesmoke:
	scripts/scalesmoke.sh

# Drives a live lips-serve daemon with an open-loop burst: p99 submit
# SLO, churn survival, 429 load shedding and a clean SIGTERM drain.
servesmoke:
	scripts/servesmoke.sh

# Drives a live daemon and checks the span surface: /jobs/{id}/trace
# phases telescope to the e2e latency, /debug/epochs carries typed
# deferral reasons, and per-tenant histograms agree with span counts.
spansmoke:
	scripts/spansmoke.sh

# Proves the chargeback pipeline to the exact microcent: lips-trace
# -audit on a traced faulty run, and a live daemon under churn/cancels
# where /tenants sums to /audit and a burn-rate alert fires and resolves.
costsmoke:
	scripts/costsmoke.sh
