#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through, e.g.
#
#   bash perfbench/run.sh --workload l1-kernel --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, temporary files
# and the binary stay under .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
