#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload bench-shape --seed 1 --seconds 35 --trace 0
#
# Build products, the Go build cache, span files and the count ledger all go
# under .bench_build/perfbench in the current directory, so the benchmark
# writes nothing outside the checkout it runs in.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
