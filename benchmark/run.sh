#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the arguments given.
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build/ at the root of the checkout, so a run
# reads and writes nothing outside it. The first build in a fresh checkout
# compiles the standard library too; later ones take well under a second.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOWORK=off
# The go command keeps its env file and telemetry counters in the user's
# configuration directory; this keeps them in the checkout too.
export XDG_CONFIG_HOME="$build/config"

cd "$root"
go build -C benchmark -o "$build/banyan-benchmark" .
exec "$build/banyan-benchmark" "$@"
