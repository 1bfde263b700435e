#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload enum-s1423x --seed 1 --seconds 45 --trace 0
#
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
out="$build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

# The runtime returns freed heap pages with MADV_FREE, so they stay
# mapped until the kernel needs them. With the default MADV_DONTNEED, a
# 50 ms bsat call re-faulted about 3000 released pages, about 13% of its
# time, and what a page fault costs in a virtual machine depends on the
# host.
export GODEBUG=madvdontneed=0
exec "$out/perfbench" "$@"
