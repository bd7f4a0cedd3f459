#!/usr/bin/env bash
# Builds the benchmark from the repository it sits in and runs it, passing
# every argument on:
#
#   bash hostbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, scratch
# stores and trace files all go under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory, so nothing is written elsewhere.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$out/hostbench" .)
exec "$out/hostbench" --out "$out" "$@"
