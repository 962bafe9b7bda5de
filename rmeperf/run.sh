#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash rmeperf/run.sh --workload uniform --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and traced-run spans all go under
# .bench_build/ in the current directory, so nothing is written outside
# the checkout. The build fails, and the script exits non-zero without a
# result, when the library sources are missing.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C rmeperf build -o "$out/rmeperf" .
exec "$out/rmeperf" "$@"
