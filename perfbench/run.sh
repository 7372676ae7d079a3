#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload live-spread --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (Go build cache,
# binary, span dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
