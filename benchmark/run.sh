#!/usr/bin/env bash
# Builds the benchmark and runs it from the checkout root. The binary and
# the Go build cache both live in .bench_build/ so nothing is read or
# written outside the checkout; the first build in a fresh checkout also
# compiles the standard library into that cache.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local
go build -C "$here" -o "$out/silo-benchmark" .
cd "$root"
exec "$out/silo-benchmark" "$@"
