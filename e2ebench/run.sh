#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload cli-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write - the Go build cache, the binary
# and the run's stores - stays under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

commit=unknown
[ -d .git ] && commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
go -C e2ebench build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/e2ebench" .
exec "$out/e2ebench" --workdir "$out" "$@"
