#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload feedback --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the serve workload's scratch
# write-ahead logs all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/tmp" "$@"
