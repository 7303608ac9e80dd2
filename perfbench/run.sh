#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#	bash perfbench/run.sh --workload point-c1 --seed 1 --seconds 25 --trace 0
#
# Every argument passes through to the benchmark binary. The build cache,
# the Go path, the go command's config and telemetry directory, temporary
# files, the binary and the trace files all live under .bench_build/ in the
# current directory, so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -outdir "$out" "$@"
