#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: nothing is read or written outside the working directory, which
# must be the repository root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$build/mirabench" .
exec "$build/mirabench" "$@"
