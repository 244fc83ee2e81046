#!/usr/bin/env bash
# Builds the benchmark (and the repro module it measures) from source into
# the build directory of the checkout, then runs it with the given flags.
# Run from the root of the repository:
#   bash perfbench/run.sh --workload solve-table1 --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
out="$build/perfbench"
mkdir -p "$out"
# Keep every file the Go toolchain writes inside the checkout, and never
# fetch a toolchain or a module: the module has no dependencies.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
