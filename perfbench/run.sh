#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload rounds-greedy --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Everything the build and the run write
# (Go build cache, binary, market data dirs, span files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/mbaperf" .)
exec "$out/mbaperf" -out "$out" "$@"
