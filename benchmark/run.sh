#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark, which is a Go
# module of its own, and runs it with the arguments given. Every file the
# toolchain and the benchmark write lands under .bench_build/ in the
# checkout: build cache, temporary files, binaries, logs, data
# directories, trace files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
# The toolchain keeps its own settings and counters under the user's
# configuration directory; give it one inside the checkout, so neither
# that directory nor a stray setting in it (GOFLAGS, GOGC...) is touched.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go build -C "$here" -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -root "$root" "$@"
