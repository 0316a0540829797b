#!/usr/bin/env bash
# Builds the benchmark and the telecast-node child from the checkout around
# this directory, then runs the benchmark with the arguments given. Every
# file it writes — Go's build cache included — stays inside the checkout:
# build products in .bench_build/, trace files in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

cd "$here"
go build -o "$build/bin/benchmark" .
go build -o "$build/bin/telecast-node" telecast/cmd/telecast-node

cd "$root"
exec "$build/bin/benchmark" -node-bin "$build/bin/telecast-node" -out "$here/out" "$@"
