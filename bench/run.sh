#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload paper-list --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiled packages, temporary files, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -buildvcs=false -o "$out/bench" .)
exec "$out/bench" "$@"
