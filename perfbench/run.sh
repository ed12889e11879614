#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-wal --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary
# and the WAL directories of the run.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/serve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a dagsched checkout" >&2
	exit 2
fi
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" --workdir "$build" "$@"
