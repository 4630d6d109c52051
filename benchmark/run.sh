#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash benchmark/run.sh --workload tpch-warm --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# generated data and traces all stay under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/work"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/benchmark" && go build -buildvcs=false -o "$build/gofusion-benchmark" .) >&2
exec "$build/gofusion-benchmark" --workdir "$build/work" "$@"
