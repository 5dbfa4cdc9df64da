#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from anywhere:
#
#   bash benchmark/run.sh --workload capstorm --seed 1 --seconds 18 --trace 0
#
# The binary, the Go build cache and the linker's temporary files all live in
# .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside the checkout. Arguments go to the benchmark unchanged; see
# README.md.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
# The benchmark is a module of its own (the driver's contract wants a compiled
# benchmark to carry its own build file) that replaces `repro` with the
# checkout around it; nothing is downloaded.
export GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

if [ -z "${BENCH_COMMIT:-}" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
	if [ "$BENCH_COMMIT" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		BENCH_COMMIT="$BENCH_COMMIT-dirty"
	fi
fi
export BENCH_COMMIT

(cd "$here" && go build -buildvcs=false -o "$build/semperos-benchmark" .) >&2
cd "$root"
exec "$build/semperos-benchmark" "$@"
