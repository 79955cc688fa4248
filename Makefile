GO ?= go

.PHONY: all build test race vet loc bench benchpair smoke

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
# field a caller can set.
loc:
	@echo "non-test Go outside bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l) lines"
	@echo "scripts/*.sh: $$(cat scripts/*.sh | wc -l) lines"
	@echo "DESIGN.md: $$(grep -c '^## ' DESIGN.md) sections"
	@echo "settable values: $$(wc -l < testdata/settings.golden)"

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
