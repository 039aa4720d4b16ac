#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout (build
# cache included, so nothing is written outside it) and runs it with the
# arguments given. Exits non-zero without a result if the program under test
# is not there to build against.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/raybenchmark" .)
cd "$root"
exec "$out/raybenchmark" "$@"
