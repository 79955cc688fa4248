#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run from and runs it with
# the arguments given. Everything the build writes stays inside the
# checkout, under .bench_build (ignored by git); no module is fetched.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$build"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
