#!/usr/bin/env bash
# Builds the benchmark runner from the checkout's source and runs it with
# the arguments given: the command BENCHMARK.json names. Everything the go
# command writes (build cache, temporary files, its own configuration)
# is kept under .bench_build in the checkout, so a run touches nothing
# outside it; the first build in a fresh checkout compiles the standard
# library too and takes about a minute.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
