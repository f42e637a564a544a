#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload merge-heavy --seed 0 --seconds 15 --trace 0
#
# Run it from the root of a checkout. Build outputs and the Go build
# cache stay under .bench_build in that checkout.
set -euo pipefail
root="$(pwd)"
bench="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
