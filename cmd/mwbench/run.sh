#!/usr/bin/env bash
# Builds cmd/mwbench from source and runs it with the given arguments.
#
# Run from the repository root:
#
#   bash cmd/mwbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and every file the benchmark writes stay in
# .bench_build/ under the current directory; so does the go command's
# telemetry, which it keeps under the user config directory. The toolchain
# is pinned to the local one and the module proxy is off, so the build
# never reaches the network. If the parent module is missing (only
# BENCHMARK.json and this directory present) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/cmd/mwbench" && go build -o "$out/mwbench" .)
exec "$out/mwbench" "$@"
