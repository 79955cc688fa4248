GO ?= go

.PHONY: all build test race vet loc unexercised bench benchpair smoke

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The sizes the ROADMAP tracks, so simplicity PRs report them alike. The
# settable values are testdata/settings.golden's lines, one per option
# field a caller can set; the metric families are the lips_ name
# constants in internal/obs/names.go.
loc:
	@echo "non-test Go outside bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l) lines"
	@echo "scripts/*.sh: $$(cat scripts/*.sh | wc -l) lines"
	@echo "DESIGN.md: $$(grep -c '^## ' DESIGN.md) sections, $$(wc -l < DESIGN.md) lines"
	@echo "settable values: $$(wc -l < testdata/settings.golden)"
	@echo "metric families: $$(grep -c '= "lips_' internal/obs/names.go)"

# Every lips/internal function no shipped entry point runs, held to
# testdata/unexercised.allow (~45 s). The traffic, all built with -cover:
# bench runs every workload for a second; lips-sim runs LiPS, FIFO, Delay
# and Fair on faulted paper20 and paper100 SWIM days, then one faulted
# paper-workload run traced as JSON lines and one as a Chrome trace (a
# SWIM day's first task starts after every fault has fired; here a crash
# kills running attempts, and the target fails if the trace holds no
# kill); lips-trace reads the JSON-lines trace in its report, -metrics,
# -by-job and -csv modes;
# lips-bench runs every experiment at quick scale; each examples/ binary
# runs once; scripts/smoke.sh runs as it stands under GOFLAGS=-cover.
# Printed: the functions left at 0.0%, then every lips/internal package
# no cmd/, examples/ or bench binary links (coverage cannot see those).
# The target fails on any printed entry the allow list does not name; an
# allow-list entry pkg.Name covers the function Name and every method Name
# in pkg. Allow-list entries the traffic now runs are reported, not failed.
unexercised:
	@set -e; export LC_ALL=C; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	mkdir "$$d/cov" "$$d/bin" "$$d/examples"; export GOCOVERDIR="$$d/cov"; b="$$d/bin"; \
	$(GO) build -cover -coverpkg=lips/... -o "$$b/" ./bench ./cmd/lips-sim ./cmd/lips-trace ./cmd/lips-bench; \
	$(GO) build -cover -coverpkg=lips/... -o "$$d/examples/" ./examples/...; \
	"$$b/bench" --seconds 1 >/dev/null; \
	for c in paper20 paper100; do for s in lips fifo delay fair; do \
		"$$b/lips-sim" -scheduler $$s -cluster $$c -workload swim \
			-faults 3 -fault-stores 1 -fault-slowdowns 1 -speculative >/dev/null; \
	done; done; \
	run="-workload paper -faults 2 -fault-stores 1 -fault-slowdowns 2 -speculative -sample-interval 120"; \
	"$$b/lips-sim" $$run -trace "$$d/run.jsonl" >/dev/null; \
	grep -q '"kind":"kill"' "$$d/run.jsonl" || { echo "unexercised: the traced run kills no attempt" >&2; exit 1; }; \
	"$$b/lips-sim" $$run -trace "$$d/run.json" -trace-format chrome >/dev/null; \
	for m in "" -metrics "-by-job 5" "-csv $$d/run.csv" "-by-job 5 -csv $$d/jobs.csv"; do \
		"$$b/lips-trace" $$m "$$d/run.jsonl" >/dev/null; \
	done; \
	"$$b/lips-bench" >/dev/null; \
	for e in "$$d"/examples/*; do "$$e" >/dev/null; done; \
	GOFLAGS='-cover -coverpkg=lips/...' scripts/smoke.sh >/dev/null; \
	$(GO) list ./internal/... | sort > "$$d/packages"; \
	{ $(GO) tool covdata func -i "$$d/cov" | \
		awk '$$1 ~ /^lips\/internal\// && $$NF == "0.0%" { sub(/\/[^\/]*:[0-9]+:$$/, "", $$1); print $$1 "." $$2 }' | sort -u; \
	  $(GO) list -deps ./cmd/... ./examples/... ./bench/... | sort | comm -13 - "$$d/packages"; } | tee "$$d/found"; \
	awk 'FILENAME == ARGV[1] { sub(/#.*/, ""); if (NF) allow[$$1] = 0; next } \
		{ short = $$0; if (match($$0, /\.[^.\/]*$$/)) short = substr($$0, 1, index($$0, ".") - 1) substr($$0, RSTART) } \
		$$0 in allow { allow[$$0]++; next } \
		short in allow { allow[short]++; next } \
		{ print "unexercised: not in testdata/unexercised.allow: " $$0; bad = 1 } \
		END { for (k in allow) if (!allow[k]) print "unexercised: allow-listed but exercised now: " k; exit bad }' \
		testdata/unexercised.allow "$$d/found" >&2

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

# The process boundary only — flags and exit codes, files between
# processes, live TCP scrapes, SIGTERM drain, the log stream. Everything
# else the binaries do is held by go test.
smoke:
	scripts/smoke.sh
