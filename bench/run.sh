#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark from source inside the
# checkout, then run it with the arguments given. Everything the toolchain
# writes (build cache, temporary files, its own telemetry counters, the
# binary, span files) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
