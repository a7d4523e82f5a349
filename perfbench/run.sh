#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed on (--workload, --seed, --seconds, --trace). Run from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, the toolchain's user config (its
# telemetry counters) and the span files stay under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
