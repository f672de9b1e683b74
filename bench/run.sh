#!/usr/bin/env bash
# Builds cmd/surveyor and the benchmark from source and runs the benchmark
# with the given arguments. Everything it leaves behind — binaries, the Go
# build cache, generated corpora, trace.json — lives in .bench_build at the
# root of the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false
t0=$(date +%s%N)
go build -o "$out/bin/surveyor" ./cmd/surveyor
go -C bench build -o "$out/bin/bench" .
build_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
exec "$out/bin/bench" -dir "$out" -build-ms "$build_ms" "$@"
