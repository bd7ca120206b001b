#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-rows --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the run's scratch tables stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
