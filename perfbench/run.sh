#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:  bash perfbench/run.sh --workload chain-steady --seed 1 --seconds 20 --trace 0
# Everything the build writes (binary, Go build cache and scratch files,
# Go's own config and telemetry files) stays under $CARGO_TARGET_DIR, or
# .bench_build when that is unset, relative to the current directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOENV=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
