#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the current directory, so the benchmark reads and writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
