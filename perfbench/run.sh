#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it.
#
#   bash perfbench/run.sh --workload dd360-cp70 --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. The build cache and the binary live under
# .bench_build/ in the current directory, so nothing is written outside it.
# Every argument is passed through to the benchmark (see perfbench/README.md).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOTOOLCHAIN=local
export GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
