#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
(cd "$here" && go build -o "$out/bgqperf" .) >&2
cd "$root"
exec "$out/bgqperf" "$@"
