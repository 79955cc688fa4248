GO ?= go

.PHONY: all build test race vet loc unreached unexercised bench benchpair smoke

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

# Every lips/internal function some test binary links but no production
# binary (cmd/, examples/, bench) does: code only tests reach. Inlining is
# off on both sides so a call always leaves a symbol; closures count as
# their enclosing function, and what _test.go files define is dropped.
unreached:
	@set -e; export LC_ALL=C; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; mkdir "$$d/bin" "$$d/test"; \
	$(GO) build -gcflags=all=-l -o "$$d/bin/" ./cmd/... ./examples/... ./bench; \
	for b in "$$d"/bin/*; do $(GO) tool nm "$$b"; done | \
		awk '$$2 == "T" && $$3 ~ /^lips\/internal\// { print $$3 }' | sort -u > "$$d/prod"; \
	i=0; for p in $$($(GO) list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...); do \
		i=$$((i + 1)); $(GO) test -c -gcflags=all=-l -o "$$d/test/$$i.test" "$$p"; \
	done; \
	for b in "$$d"/test/*.test; do \
		$(GO) tool nm "$$b" | awk '$$2 == "T" && $$3 ~ /^lips\/internal\// { print $$1, $$3 }' | \
			sort -k2 | join -1 2 -2 1 -v 1 - "$$d/prod" | awk '{ print "0x" $$2 }' | \
			$(GO) tool addr2line "$$b" | paste - - | \
			awk '$$2 !~ /_test\.go:/ && $$2 !~ /^<autogenerated>/ { print $$1 }'; \
	done | sed -E 's/(\.func[0-9]+)+$$//' | sort -u

# Every lips/internal function the production traffic below never runs:
# coverage-instrumented lips-sim and bench binaries run every bench
# workload for a second, then lips-sim under LiPS, FIFO, Delay and Fair on
# faulted paper20 and paper100 SWIM days; the functions left at 0.0% are
# printed. Where unreached lists code no binary links, this lists code
# they link but that the traffic does not execute.
unexercised:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; mkdir "$$d/cov"; \
	$(GO) build -cover -coverpkg=lips/... -o "$$d/" ./cmd/lips-sim ./bench; \
	GOCOVERDIR="$$d/cov" "$$d/bench" --seconds 1 >/dev/null; \
	for c in paper20 paper100; do for s in lips fifo delay fair; do \
		GOCOVERDIR="$$d/cov" "$$d/lips-sim" -scheduler $$s -cluster $$c -workload swim \
			-faults 3 -fault-stores 1 -fault-slowdowns 1 -speculative >/dev/null; \
	done; done; \
	$(GO) tool covdata func -i "$$d/cov" | awk '$$1 ~ /^lips\/internal\// && $$NF == "0.0%" { print $$1, $$2 }'

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
