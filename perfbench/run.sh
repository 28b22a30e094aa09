#!/usr/bin/env bash
# Builds the benchmark from the checkout's source into .bench_build/, then
# runs it with the given arguments.
#
#   bash perfbench/run.sh --workload sweep-eib --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -tmp "$out/tmp" "$@"
