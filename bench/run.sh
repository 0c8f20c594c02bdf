#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout and
# runs it with the arguments given. Everything the build writes (binary,
# Go build cache, temporary files) stays inside the checkout. Run from the
# repository root:  bash bench/run.sh --workload fabric-1k --seed 7 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/davide-bench" .
exec "$out/davide-bench" "$@"
