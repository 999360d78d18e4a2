#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given flags; BENCHMARK.json's command. The binary and the Go build
# cache both live under .bench_build (or $CARGO_TARGET_DIR), so nothing
# is read or written outside the checkout. `go run ./bench` does the same
# with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/smbench" ./bench
exec "$out/smbench" "$@"
