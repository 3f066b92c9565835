#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json's command): builds the
# benchmark from source inside the checkout, build cache included, and runs
# it with the driver's arguments. By hand, `go run ./bench` does the same.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
