#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: builds the bench binary from
# source into <checkout>/.bench_build and runs it with the given arguments
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes (binary, Go build cache, temp files) stays
# inside the checkout. The benchmark needs the module root (../go.mod and
# ../internal) beside this directory; without it the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

cd "$here"
go build -o "$build/lbsq-bench" .
exec "$build/lbsq-bench" "$@"
