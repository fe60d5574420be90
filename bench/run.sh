#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build/ and runs it
# with the given arguments; BENCHMARK.json's command. See bench/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
# Keep the Go build cache and scratch files inside the checkout too (the
# harness's own `go build` of cmd/jfserved inherits these): the first build
# in a checkout is a cold one, ~25 s.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
go build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
