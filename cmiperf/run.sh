#!/usr/bin/env bash
# Builds the CMI benchmark from this checkout and runs it:
#
#   bash cmiperf/run.sh --workload handoff|watch --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache, the
# benchmark's state directories and traces all live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp" "$out/config"
export CARGO_TARGET_DIR="$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/cmiperf" .)
exec "$out/cmiperf" "$@"
