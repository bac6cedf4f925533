#!/usr/bin/env bash
# Builds the benchmark against the checkout it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fabric-burst --seed 3 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the artifacts of traced runs all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
