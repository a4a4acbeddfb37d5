#!/usr/bin/env bash
# The BENCHMARK.json entry point: build the harness with every Go cache
# and temporary file inside the checkout, then hand over to it.
#
#   bash perf/run.sh --workload rmat-serve --seed 1 --seconds 20 --trace 0
#
# Run from the root of a parsssp checkout; anywhere else it fails without
# printing a result. `go run ./perf` does the same with the user's caches.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/ssspd ]; then
	echo "perf/run.sh: not at the root of a parsssp checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/perf" ./perf
exec "$build/perf" "$@"
