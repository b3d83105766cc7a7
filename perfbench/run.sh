#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload batch-1m --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build state, the binary and the span logs
# stay under .bench_build/ in that root. Without the repository's sources
# next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
