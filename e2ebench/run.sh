#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# root of a checkout of the repository:
#
#   bash e2ebench/run.sh --workload fig1-deep --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache, temporary files, the binary, and the
# fig1-audit store, which the run removes again).
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
