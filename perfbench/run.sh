#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it; arguments
# pass through (see perfbench/main.go). Run from the repository root. The
# build cache, the go command's configuration and all run output stay under
# .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
