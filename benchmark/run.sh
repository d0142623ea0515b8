#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Everything built lands under .bench_build/ in the
# checkout — the Go build cache too, unless GOCACHE is already set — so a
# run reads and writes nothing outside it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="${GOCACHE:-$build/go-cache}"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go -C "$root/benchmark" build -buildvcs=false -o "$build/bin/cdml-benchmark" .
cd "$root"
exec "$build/bin/cdml-benchmark" "$@"
