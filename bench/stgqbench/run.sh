#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): build stgqbench
# from source and run it. Run from the repository root:
#
#   bash bench/stgqbench/run.sh --workload read_cold_100k --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ of the
# working directory: binaries, cluster data, results, and — by pointing
# HOME there — the Go build cache, GOPATH and the toolchain's own files.
set -euo pipefail
# Without the program there is nothing to measure: say so before anything
# is started or written.
for f in go.mod cmd/stgqd cmd/stgqgw; do
	[ -e "$f" ] || { echo "stgqbench: $f not found: run from the root of a checkout that holds the program" >&2; exit 2; }
done
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/stgqbench/bin"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOFLAGS
# A go command that finds no telemetry mode under HOME (new here in every
# checkout) starts a detached telemetry child that outlives it; no process
# of ours may outlive the run. "go telemetry off" itself starts none.
go telemetry off
go build -o "$build/stgqbench/bin/stgqbench" ./bench/stgqbench
exec "$build/stgqbench/bin/stgqbench" "$@"
