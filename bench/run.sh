#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload hot_pipelined --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build in the working directory, and no module is downloaded.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -tmp "$out/tmp" "$@"
