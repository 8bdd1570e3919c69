#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files, the binary and every output stay
# under .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
