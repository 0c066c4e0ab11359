#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
#
#   bash bench/run.sh --workload ctrl-churn --seed 3 --seconds 18 --trace 0
#   bash bench/run.sh                       # every workload, interleaved
#   bash bench/run.sh -compare A.json B.json
#
# Every build product, cache and temp file stays under .bench_build/ in the
# current directory, so the run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$build/lifl-bench" .)
exec "$build/lifl-bench" "$@"
