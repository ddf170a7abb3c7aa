#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command BENCHMARK.json
# names. Everything it writes stays inside the checkout — the binary and
# the Go build cache under .bench_build/, results under bench/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
