#!/usr/bin/env bash
# Builds the benchmark and the server it drives from the checkout in the
# current directory, then runs one benchmark run:
#
#   bash bench/run.sh --workload ingest --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run it from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

go build -o "$build/snowwhite" ./cmd/snowwhite
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" -build "$build" "$@"
